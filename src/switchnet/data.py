"""Datasets, synthetic group-structured generation, disjoint partitioning, test splits.

Observations carry a group tag; partitioning assigns disjoint subsets of
observation ids to neuron units. All operations are pure functions of their
inputs and a seed.
"""

import csv
import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import DataError
from .jsonio import is_int, is_number
from .neuron import _z
from .seeding import rng_for

SELECTIONS = ("contiguous", "stratified", "explicit")
LABEL_RULE_KINDS = ("all-zero", "all-one", "linear-threshold")


@dataclass(frozen=True)
class Observation:
    id: int
    group: int
    label: int
    features: tuple[float, ...]

    def __post_init__(self):
        if self.id < 0 or self.group < 0:
            raise DataError(f"observation id/group must be non-negative, got id={self.id} group={self.group}")
        if self.label not in (0, 1):
            raise DataError(f"invalid label {self.label!r} for observation {self.id}")
        if not all(map(math.isfinite, self.features)):
            raise DataError(f"observation {self.id}: non-finite feature")


def _check_group_name(name: str) -> None:
    # the dataset CSV carries each name on one comment line
    if "\n" in name or "\r" in name:
        raise DataError(f"group name {name!r} contains a line break")


@dataclass(frozen=True)
class Dataset:
    dim: int
    groups: tuple[tuple[int, str], ...]
    observations: tuple[Observation, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise DataError("dataset dimension must be >= 1")
        ids = [g for g, _ in self.groups]
        if ids != list(range(len(ids))):  # in order, as the dataset CSV reads them back
            raise DataError(f"group ids must be dense 0..G-1 in order, got {ids}")
        for _, name in self.groups:
            _check_group_name(name)
        known_groups = set(ids)
        seen = set()
        for obs in self.observations:
            if len(obs.features) != self.dim:
                raise DataError(f"observation {obs.id} has {len(obs.features)} features, expected {self.dim}")
            if obs.group not in known_groups:
                raise DataError(f"observation {obs.id} references unknown group {obs.group}")
            if obs.id in seen:
                raise DataError(f"duplicate observation id {obs.id}")
            seen.add(obs.id)

    @cached_property
    def _by_id(self) -> dict:
        return {obs.id: obs for obs in self.observations}

    def observation(self, obs_id: int) -> Observation:
        try:
            return self._by_id[obs_id]
        except KeyError:
            raise DataError(f"unknown observation id {obs_id}") from None

    def ids(self) -> tuple[int, ...]:
        return tuple(obs.id for obs in self.observations)


@dataclass(frozen=True)
class LabelRule:
    kind: str
    weights: tuple[float, ...] | None = None
    bias: float = 0.0

    def __post_init__(self):
        if self.kind not in LABEL_RULE_KINDS:
            raise DataError(f"unknown label rule {self.kind!r}")
        if self.kind == "linear-threshold" and not self.weights:
            raise DataError("linear-threshold rule needs weights")

    def apply(self, features) -> int:
        if self.kind == "all-zero":
            return 0
        if self.kind == "all-one":
            return 1
        if len(self.weights) != len(features):
            raise DataError("label rule weight length does not match features")
        return 1 if _z(self.weights, self.bias, features) > 0 else 0

    def to_json(self):
        if self.kind == "linear-threshold":
            return {"kind": self.kind, "weights": list(self.weights), "bias": self.bias}
        return self.kind

    @classmethod
    def from_json(cls, obj) -> "LabelRule":
        if isinstance(obj, str):
            return cls(kind=obj)
        weights, bias = list(obj["weights"]), obj.get("bias", 0.0)
        if not all(map(is_number, weights + [bias])):
            raise DataError(f"label rule weights and bias must be JSON numbers, got {weights} and {bias!r}")
        return cls(kind=obj["kind"], weights=tuple(map(float, weights)), bias=float(bias))


@dataclass(frozen=True)
class GroupSpec:
    name: str
    mean: tuple[float, ...]
    scale: tuple[float, ...]
    label_rule: LabelRule
    count: int

    def __post_init__(self):
        _check_group_name(self.name)
        if len(self.mean) != len(self.scale):
            raise DataError(f"group {self.name!r}: mean and scale lengths differ")
        if not all(math.isfinite(v) for v in self.mean + self.scale):
            raise DataError(f"group {self.name!r}: mean and scale entries must be finite")
        if any(s <= 0 for s in self.scale):
            raise DataError(f"group {self.name!r}: scale entries must be > 0")
        if not is_int(self.count) or self.count < 1:
            raise DataError(f"group {self.name!r}: count must be an integer >= 1, got {self.count!r}")

    def to_json(self) -> dict:
        return {"name": self.name, "mean": list(self.mean), "scale": list(self.scale),
                "label_rule": self.label_rule.to_json(), "count": self.count}

    @classmethod
    def from_json(cls, obj: dict) -> "GroupSpec":
        name, mean, scale = obj["name"], list(obj["mean"]), list(obj["scale"])
        if not isinstance(name, str):
            raise DataError(f"group name must be a string, got {name!r}")
        if not all(map(is_number, mean + scale)):
            raise DataError(f"group {name!r}: mean and scale entries must be JSON numbers, "
                            f"got {mean} and {scale}")
        return cls(name=name, mean=tuple(map(float, mean)), scale=tuple(map(float, scale)),
                   label_rule=LabelRule.from_json(obj["label_rule"]), count=obj["count"])


@dataclass(frozen=True)
class PartitionPlan:
    """Planned subset sizes: unit k gets counts[k] observations."""
    counts: tuple[int, ...]
    selection: str = "stratified"
    explicit_ids: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.selection not in SELECTIONS:
            raise DataError(f"unknown selection {self.selection!r}")
        if not all(is_int(c) and c >= 1 for c in self.counts):
            raise DataError(f"planned counts must be positive integers, got {list(self.counts)}")
        if self.selection == "explicit":
            if self.explicit_ids is None or len(self.explicit_ids) != len(self.counts):
                raise DataError("explicit selection needs one id list per unit")
            for unit, (count, ids) in enumerate(zip(self.counts, self.explicit_ids)):
                if not all(map(is_int, ids)):
                    raise DataError(f"unit {unit}: explicit ids must be integers, got {list(ids)}")
                if len(set(ids)) != len(ids):
                    raise DataError(f"unit {unit}: explicit id list has duplicates")
                if len(ids) != count:
                    raise DataError(f"unit {unit}: explicit list has {len(ids)} ids, plan says {count}")
        elif self.explicit_ids is not None:
            raise DataError("explicit_ids only valid with selection='explicit'")

    @classmethod
    def from_counts(cls, counts, selection: str = "stratified",
                    explicit_ids=None) -> "PartitionPlan":
        ids = None if explicit_ids is None else tuple(tuple(lst) for lst in explicit_ids)
        return cls(counts=tuple(counts), selection=selection, explicit_ids=ids)


@dataclass(frozen=True)
class PartitionSet:
    """Disjoint observation-id subsets, one per planned unit: subsets[k] holds unit k's ids."""
    subsets: tuple[tuple[int, ...], ...]
    plan: PartitionPlan
    seed: int

    def __post_init__(self):
        if not is_int(self.seed):
            raise DataError(f"partition seed must be an integer, got {self.seed!r}")
        if len(self.subsets) != len(self.plan.counts):
            raise DataError(f"{len(self.subsets)} subsets for a plan of {len(self.plan.counts)} units")
        claimed = set()
        for unit, (count, ids) in enumerate(zip(self.plan.counts, self.subsets)):
            if len(ids) != count:
                raise DataError(f"unit {unit}: subset has {len(ids)} ids, plan says {count}")
            bad = [i for i in ids if not is_int(i)]
            if bad:
                raise DataError(f"unit {unit}: subset ids must be integers, got {bad[0]!r}")
            if len(set(ids)) != len(ids):
                raise DataError(f"unit {unit}: subset repeats an observation id")
            overlap = claimed.intersection(ids)
            if overlap:
                raise DataError(f"subsets overlap on observation ids {sorted(overlap)}")
            claimed.update(ids)

    def assigned_ids(self) -> frozenset:
        return frozenset(i for ids in self.subsets for i in ids)

    def to_json(self) -> dict:
        out = {"seed": self.seed,
               "selection": self.plan.selection,
               "plan": [[k, c] for k, c in enumerate(self.plan.counts)],
               "subsets": {str(k): list(ids) for k, ids in enumerate(self.subsets)}}
        if self.plan.explicit_ids is not None:
            out["explicit_ids"] = [list(ids) for ids in self.plan.explicit_ids]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "PartitionSet":
        units = [u for u, _ in obj["plan"]]
        # an equality test alone would take 0.0 for unit 0
        if not all(map(is_int, units)) or units != list(range(len(units))):
            raise DataError(f"plan unit indices must be integers 0..n-1 in order, got {units}")
        keys = [str(k) for k in units]
        if set(obj["subsets"]) != set(keys):
            raise DataError(f"subset keys must be exactly {keys}, got {sorted(obj['subsets'])}")
        explicit = obj.get("explicit_ids")
        plan = PartitionPlan(counts=tuple(c for _, c in obj["plan"]), selection=obj["selection"],
                             explicit_ids=None if explicit is None else tuple(map(tuple, explicit)))
        return cls(subsets=tuple(tuple(obj["subsets"][k]) for k in keys), plan=plan, seed=obj["seed"])


def generate_synthetic(specs, seed: int) -> Dataset:
    """Sample a group-structured dataset.

    Each observation i of group g is mean_g + scale_g * N(0, I) drawn from a
    generator keyed by (seed, g, i), so the dataset is a pure function of
    (specs, seed) and independent of generation order.
    """
    specs = tuple(specs)
    if not specs:
        raise DataError("need at least one group spec")
    dim = len(specs[0].mean)
    for spec in specs:
        if len(spec.mean) != dim:
            raise DataError(f"group {spec.name!r} has dimension {len(spec.mean)}, expected {dim}")
    observations = []
    obs_id = 0
    for g, spec in enumerate(specs):
        for i in range(spec.count):
            draws = rng_for(seed, g, i).standard_normal(dim)
            features = tuple(float(m + s * d) for m, s, d in zip(spec.mean, spec.scale, draws))
            observations.append(Observation(id=obs_id, group=g,
                                            label=spec.label_rule.apply(features),
                                            features=features))
            obs_id += 1
    groups = tuple((g, spec.name) for g, spec in enumerate(specs))
    return Dataset(dim=dim, groups=groups, observations=tuple(observations))


_GROUP_COMMENT = re.compile(r"^# group (\d+): (.*)$")


def save_dataset(dataset: Dataset, path) -> None:
    """Write the dataset CSV (group names carried in leading comment lines)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        for g, name in dataset.groups:
            fh.write(f"# group {g}: {name}\n")
        # what csv.writer would write: ints and finite float reprs never need quoting
        fh.write(",".join(["id", "group", "label"] + [f"f{i}" for i in range(dataset.dim)]) + "\n")
        fh.writelines(",".join([str(obs.id), str(obs.group), str(obs.label), *map(repr, obs.features)])
                      + "\n" for obs in dataset.observations)


def _parse_lines(linenos, lines) -> list:
    """One record per line, through one strict CSV reader.

    A quoted field left open at the end of its line, and any other CSV error,
    is a DataError naming the line where that record starts.
    """
    reader = csv.reader(lines, strict=True)
    records = []
    try:
        for record in reader:
            if reader.line_num != len(records) + 1:
                break
            records.append(record)
    except csv.Error as exc:
        raise DataError(f"malformed CSV ({exc}), line {linenos[len(records)]}") from None
    if len(records) != len(lines):
        raise DataError(f"quoted field runs past its line, line {linenos[len(records)]}")
    return records


def load_dataset(path) -> Dataset:
    """Parse a dataset CSV (LF or CRLF); errors name the offending physical line."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    names = {}
    linenos, lines = [], []
    with path.open("r", encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            if line.startswith("#"):
                m = _GROUP_COMMENT.match(line)
                if m:
                    names[int(m.group(1))] = m.group(2)
                continue
            linenos.append(lineno)
            lines.append(line)
    if not lines:
        raise DataError(f"no header line in {path}")
    header, *rows = _parse_lines(linenos, lines)
    if header[:3] != ["id", "group", "label"] or any(
            h != f"f{i}" for i, h in enumerate(header[3:])) or len(header) < 4:
        raise DataError(f"bad header, line {linenos[0]}: {lines[0]!r}")
    dim = len(header) - 3
    observations = []
    for lineno, row in zip(linenos[1:], rows):
        if len(row) != len(header):
            raise DataError(f"expected {len(header)} columns, got {len(row)}, line {lineno}")
        try:
            obs_id, group = int(row[0]), int(row[1])
        except ValueError:
            raise DataError(f"non-integer id/group, line {lineno}") from None
        if row[2] not in ("0", "1"):
            raise DataError(f"invalid label, line {lineno}")
        try:
            features = tuple(float(v) for v in row[3:])
        except ValueError:
            raise DataError(f"non-numeric feature, line {lineno}") from None
        if names and group not in names:
            raise DataError(f"unknown group {group}, line {lineno}")
        try:
            observations.append(Observation(id=obs_id, group=group, label=int(row[2]),
                                            features=features))
        except DataError as exc:
            raise DataError(f"{exc}, line {lineno}") from None
    group_ids = sorted(names) if names else sorted({o.group for o in observations})
    groups = tuple((g, names.get(g, f"group {g}")) for g in group_ids)
    return Dataset(dim=dim, groups=groups, observations=tuple(observations))


def partition(dataset: Dataset, plan: PartitionPlan, seed: int) -> PartitionSet:
    """Assign disjoint observation subsets to units per the plan."""
    total = sum(plan.counts)
    if total > len(dataset.observations):
        raise DataError(f"plan needs {total} observations, dataset has {len(dataset.observations)}")
    subsets = []
    if plan.selection == "contiguous":
        cursor = 0
        all_ids = dataset.ids()
        for count in plan.counts:
            subsets.append(tuple(sorted(all_ids[cursor:cursor + count])))
            cursor += count
    elif plan.selection == "stratified":
        for unit, count in enumerate(plan.counts):
            if unit >= len(dataset.groups):  # group ids are dense 0..G-1
                raise DataError(f"stratified selection: no group {unit} for unit {unit}")
            pool = [obs.id for obs in dataset.observations if obs.group == unit]
            if len(pool) < count:
                raise DataError(f"stratified group {unit} exhausted: has {len(pool)}, unit needs {count}")
            order = rng_for(seed, "partition", unit).permutation(len(pool))
            subsets.append(tuple(sorted(pool[j] for j in order[:count])))
    else:  # explicit
        known = set(dataset.ids())
        for unit, ids in enumerate(plan.explicit_ids):
            missing = set(ids) - known
            if missing:
                raise DataError(f"unit {unit}: explicit ids not in dataset: {sorted(missing)}")
            subsets.append(tuple(sorted(ids)))
    return PartitionSet(subsets=tuple(subsets), plan=plan, seed=seed)


def make_test_sets(dataset: Dataset, partitions: PartitionSet, holdout_fraction: float,
                   seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Build the two evaluation id sets.

    non-overlapping: ids never assigned to any unit (unseen data).
    overlapping: a seeded sample of holdout_fraction of the assigned ids,
    measuring performance on data the units trained on.

    Both sets feed evaluation and the heatmap, so an empty overlapping sample
    or a group with no non-overlapping id is an error here, before training.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise DataError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    assigned_ids = partitions.assigned_ids()
    assigned = sorted(assigned_ids)
    non_overlapping = tuple(i for i in sorted(dataset.ids()) if i not in assigned_ids)
    if not non_overlapping:
        raise DataError("no unassigned observations: non-overlapping test set would be empty")
    covered = {dataset.observation(i).group for i in non_overlapping}
    uncovered = [g for g, _ in dataset.groups if g not in covered]
    if uncovered:
        raise DataError(f"group(s) {uncovered} have no unassigned observation: "
                        "the non-overlapping test set must cover every group")
    k = math.floor(holdout_fraction * len(assigned))
    if k == 0:
        raise DataError(f"holdout_fraction {holdout_fraction} of {len(assigned)} assigned ids "
                        "samples no overlapping test id")
    picks = rng_for(seed, "holdout").choice(len(assigned), size=k, replace=False)
    overlapping = tuple(sorted(assigned[j] for j in picks))
    return overlapping, non_overlapping


def save_group_specs(specs, path) -> None:
    Path(path).write_text(json.dumps([s.to_json() for s in specs], indent=2) + "\n", encoding="utf-8")


def load_group_specs(path) -> tuple[GroupSpec, ...]:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    return tuple(GroupSpec.from_json(obj) for obj in raw)
