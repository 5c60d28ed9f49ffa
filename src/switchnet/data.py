"""Datasets, synthetic group-structured generation, disjoint partitioning, test splits.

A dataset holds its rows as read-only numpy columns: integer ids, row groups
and labels, and one (rows, dim) float64 feature array. An id's row is found
by a binary search of the ids' stable argsort, made on first use.
`Observation` is the row type at the API edge: `Dataset.observation` builds
one on demand, and `Dataset.from_observations` builds a dataset from rows.
Every pass over the data (generation, the CSV reader and writer,
partitioning, test splits, a node's rows, the network's group blocks) works on
the columns; the constructor checks them, by one list of row rules (`subset`,
a gather of checked rows, by the one rule a gather can break), and the CSV
reader names a fault's line. A dataset read from a CSV also keeps the file's
bytes as its `source`, and writing it writes those bytes back: a run on a CSV
carries its input as given. Partitioning assigns disjoint subsets of
observation ids to neuron units. Every id list is an int64 column from the
partition to the bundle: the subsets, the ids assigned, and both test sets,
each sorted and read-only, checked and drawn by sorts and masks. An id list
passed in is read as integers, Python or numpy; a bool or float id is an
error, never truncated. All operations are pure functions of their inputs and
a seed.
"""

import csv
import io
import math
import re
import warnings
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DataError
from .jsonio import check_keys, floats, is_int
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


def _is_count(value) -> bool:
    """A positive JSON integer below 2**63: a numpy array dimension can hold it,
    and a sum of a list of them converts to float."""
    return is_int(value) and 1 <= value < 2**63


def _check_group_name(name: str) -> None:
    # the dataset CSV carries each name on one comment line
    if "\n" in name or "\r" in name:
        raise DataError(f"group name {name!r} contains a line break")


def _column(values, kinds: str, dtype, what: str) -> np.ndarray:
    """A read-only copy of `values` as `dtype`; an entry of another kind is an
    error, never coerced (a float id is not truncated)."""
    raw = np.asarray(values)
    if raw.size and (raw.dtype.kind not in kinds or not np.can_cast(raw.dtype, dtype)):
        raise DataError(f"dataset {what} must be {dtype.__name__} numbers, got dtype {raw.dtype}")
    column = np.array(raw, dtype=dtype)
    column.flags.writeable = False
    return column


def _first_fault(checks):
    """(row, message) of the earliest row failing a check, or None.

    Each check pairs a boolean mask over the rows with a function from a row to
    its message; on one row the earlier check wins, as a row-by-row scan would.
    """
    found = None
    for bad, message in checks:
        if bad.any():
            row = int(np.argmax(bad))  # the first True
            if found is None or row < found[0]:
                found = (row, message)
    return None if found is None else (found[0], found[1](found[0]))


class _RowFault(DataError):
    """A row rule's fault: `args` are the earliest faulty row, which
    `load_dataset` names by its line, and the message, all the fault reads."""

    def __str__(self):
        return self.args[1]


def _row_rules(ids, groups, labels, features, group_ids) -> list:
    """Every rule a dataset applies to its rows, over columns, each with its
    message, in the order a row-by-row scan applies them on one row."""
    # a dense group list, the usual case, declares exactly the ids below its length
    dense = group_ids == list(range(len(group_ids)))
    undeclared = groups >= len(group_ids) if dense else ~np.isin(groups, group_ids)
    return [((ids < 0) | (groups < 0), lambda r: "observation id/group must be non-negative, "
             f"got id={ids[r]} group={groups[r]}"),
            (undeclared, lambda r: f"observation {ids[r]} references unknown group {groups[r]}"),
            ((labels != 0) & (labels != 1), lambda r: f"invalid label {int(labels[r])!r} for observation {ids[r]}"),
            (~np.isfinite(features).all(axis=1), lambda r: f"observation {ids[r]}: non-finite feature"),
            _duplicates(ids)]


def _duplicates(ids: np.ndarray) -> tuple:
    """The rule no id repeats an earlier row's, as `_row_rules` lists it."""
    return _repeats(ids), lambda r: f"duplicate observation id {ids[r]}"


def _sorted_ids(ids: np.ndarray) -> tuple:
    """(rows in id order, the ids in that order): a stable sort, so equal ids
    keep their row order."""
    order = np.argsort(ids, kind="stable")
    return order, ids[order]


def _held(by_id) -> np.ndarray:
    """Mask of the rows whose id an earlier row already has, from `_sorted_ids`:
    among equal ids in row order, every one after the first is a repeat."""
    order, ranked = by_id
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:][ranked[1:] == ranked[:-1]]] = True
    return repeat


def _repeats(ids: np.ndarray) -> np.ndarray:
    """`_held` of the ids; ids in increasing order, the usual layout, repeat
    none and need no sort."""
    if (ids[1:] > ids[:-1]).all():
        return np.zeros(len(ids), dtype=bool)
    return _held(_sorted_ids(ids))


def _int64_ids(ids, what: str) -> tuple:
    """`ids` in their order as a new int64 column, up to the first id past int64:
    (that column, that id or None). A bool or float id, Python or numpy, or any
    other non-integer, is a DataError naming the first: it is never truncated.
    A uint64 array is listed, so an id past int64 stays one, never wrapped."""
    if isinstance(ids, np.ndarray) and ids.dtype.kind in "iu" and ids.dtype != np.uint64:
        return np.array(ids, dtype=np.int64), None
    values = ids.tolist() if isinstance(ids, np.ndarray) else list(ids)
    if not set(map(type, values)) <= {int}:
        bad = next((v for v in values if not (is_int(v) or isinstance(v, np.integer))), None)
        if bad is not None:
            raise DataError(f"{what} must be integers, got {bad!r}")
        values = list(map(int, values))
    past = next((k for k, v in enumerate(values) if not -2**63 <= v < 2**63), None)
    return np.array(values[:past], dtype=np.int64), None if past is None else values[past]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows as columns: row r is observation `ids[r]` of group `row_groups[r]`,
    with label `labels[r]` and features `features[r]`.

    The columns are read-only copies of what the constructor is given, and they
    are checked as a whole: integer ids, groups and labels, one row per entry,
    then the row rules, which name the earliest faulty row, then the group list
    (ids dense 0..G-1, names on one line), which names no row.

    `source` is the bytes of the CSV file the dataset was read from, set by
    `load_dataset` only; it is not compared, and a dataset built any other way
    (`subset`, `from_observations`, `generate_synthetic`, a pickled copy) has none.
    """
    dim: int
    groups: tuple[tuple[int, str], ...]
    ids: np.ndarray
    row_groups: np.ndarray
    labels: np.ndarray
    features: np.ndarray
    source: "bytes | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DataError("dataset dimension must be >= 1")
        for name, kinds, dtype in (("ids", "iu", np.int64), ("row_groups", "iu", np.int64),
                                   ("labels", "iu", np.int64), ("features", "fiu", np.float64)):
            object.__setattr__(self, name, _column(getattr(self, name), kinds, dtype, name))
        ids, groups, labels, features = self.ids, self.row_groups, self.labels, self.features
        n = len(ids)
        if ids.shape != (n,) or groups.shape != (n,) or labels.shape != (n,):
            raise DataError(f"ids, row_groups and labels must be 1-D columns of one length, got shapes "
                            f"{ids.shape}, {groups.shape} and {labels.shape}")
        if features.shape != (n, self.dim):
            raise DataError(f"features must have shape ({n}, {self.dim}), got {features.shape}")
        group_ids = [g for g, _ in self.groups]
        fault = _first_fault(_row_rules(ids, groups, labels, features, group_ids))
        if fault:
            raise _RowFault(*fault)
        # the group list names no row, so its faults come after every row's
        if group_ids != list(range(len(group_ids))):  # in order, as the dataset CSV reads them back
            raise DataError(f"group ids must be dense 0..G-1 in order, got {group_ids}")
        for _, name in self.groups:
            _check_group_name(name)

    @classmethod
    def from_observations(cls, dim: int, groups, observations) -> "Dataset":
        """The dataset of these rows, in this order."""
        rows = tuple(observations)
        # a row of the wrong width cannot join the feature array, so the rows
        # before it are checked first, as a row-by-row scan would
        short = next((k for k, obs in enumerate(rows) if len(obs.features) != dim), len(rows))
        head = rows[:short]
        # ids and groups keep their own type, so the constructor rejects a float
        # or an id past 64 bits rather than truncate it; labels are 0 or 1 already
        dataset = cls(dim=dim, groups=tuple(groups),
                      ids=np.array([obs.id for obs in head]),
                      row_groups=np.array([obs.group for obs in head]),
                      labels=np.array([obs.label for obs in head], dtype=np.int64),
                      features=np.array([obs.features for obs in head], dtype=float).reshape(len(head), dim))
        if short < len(rows):
            obs = rows[short]
            raise DataError(f"observation {obs.id} has {len(obs.features)} features, expected {dim}")
        return dataset

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.dim == other.dim and self.groups == other.groups
                and all(np.array_equal(a, b) for a, b in zip(self._columns(), other._columns())))

    def __reduce__(self):
        # rebuilt through the constructor, so the copy's columns are checked and
        # read-only too; the source stays behind, so a spawned child gets the columns only
        return (Dataset, (self.dim, self.groups, *self._columns()))

    def _columns(self) -> tuple:
        return self.ids, self.row_groups, self.labels, self.features

    @cached_property
    def _by_id(self) -> tuple:
        """`_sorted_ids(ids)`: `row_index`'s search table, made on its first use."""
        return _sorted_ids(self.ids)

    def row_index(self, ids) -> np.ndarray:
        """The row of each id, in order, found by a binary search of the ids in
        sorted order (`_by_id`). A bool or float id is a DataError naming it,
        and so is the first id, in order, that no row holds (a negative one, or
        one past int64, included)."""
        query, past = _int64_ids(ids, "observation ids")
        order, ranked = self._by_id
        at = np.searchsorted(ranked, query)
        known = at < len(ranked)
        known[known] = ranked[at[known]] == query[known]
        if not known.all():
            raise DataError(f"unknown observation id {query[np.argmin(known)]}")
        if past is not None:  # no row holds an id past int64; the ids before it all have one
            raise DataError(f"unknown observation id {past}")
        return order[at]

    def observation(self, obs_id: int) -> Observation:
        row = self.row_index((obs_id,))[0]
        return Observation(id=int(self.ids[row]), group=int(self.row_groups[row]),
                           label=int(self.labels[row]), features=tuple(self.features[row].tolist()))

    def subset(self, ids) -> "Dataset":
        """The rows of `ids`, in that order, over the same groups.

        Rows of a checked dataset break no row rule but the one a gather can:
        an id given twice. So that rule alone is checked; the columns are
        read-only copies, as the constructor's are."""
        rows = self.row_index(ids)
        ids, row_groups, labels, features = columns = [column[rows] for column in self._columns()]
        fault = _first_fault([_duplicates(ids)])
        if fault:
            raise _RowFault(*fault)
        for column in columns:
            column.flags.writeable = False
        subset = object.__new__(Dataset)  # skips `__post_init__`, whose other rules these rows pass
        vars(subset).update(dim=self.dim, groups=self.groups, ids=ids, row_groups=row_groups,
                            labels=labels, features=features, source=None)
        return subset


@dataclass(frozen=True)
class LabelRule:
    """A group's labels: a constant kind (`all-zero`, `all-one`) takes no weights
    or bias; `linear-threshold` labels 1 where `w.x + b > 0` (bias 0.0 unless given).
    In JSON, a kind's name or an object holding `kind` and only the fields it takes."""
    kind: str
    weights: tuple[float, ...] | None = None
    bias: float | None = None

    def __post_init__(self):
        if self.kind not in LABEL_RULE_KINDS:
            raise DataError(f"unknown label rule {self.kind!r}")
        if self.kind != "linear-threshold":
            if self.weights is not None or self.bias is not None:
                raise DataError(f"label rule {self.kind!r} takes no weights or bias")
        elif not self.weights:
            raise DataError("linear-threshold rule needs weights")
        elif self.bias is None:
            object.__setattr__(self, "bias", 0.0)

    def labels(self, features: np.ndarray) -> np.ndarray:
        """The label of every row of a (rows, dim) feature array: `_z` over the
        feature columns sums each row left to right, as on one row."""
        if self.kind != "linear-threshold":
            return np.full(len(features), int(self.kind == "all-one"), dtype=np.int64)
        if len(self.weights) != features.shape[1]:
            raise DataError("label rule weight length does not match features")
        return np.where(_z(self.weights, self.bias, features.T) > 0, 1, 0)

    def to_json(self):
        if self.kind == "linear-threshold":
            return {"kind": self.kind, "weights": list(self.weights), "bias": self.bias}
        return self.kind

    @classmethod
    def from_json(cls, obj) -> "LabelRule":
        if isinstance(obj, str):
            return cls(kind=obj)
        check_keys(obj, ("kind",), ("weights", "bias"), "label rule")
        weights = floats(obj["weights"], "label rule weights") if "weights" in obj else None
        bias = floats([obj["bias"]], "label rule bias")[0] if "bias" in obj else None
        return cls(kind=obj["kind"], weights=weights, bias=bias)


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
        if not _is_count(self.count):
            raise DataError(f"group {self.name!r}: count must be a positive integer below 2**63, "
                            f"got {self.count!r}")

    def to_json(self) -> dict:
        return {"name": self.name, "mean": list(self.mean), "scale": list(self.scale),
                "label_rule": self.label_rule.to_json(), "count": self.count}

    @classmethod
    def from_json(cls, obj: dict) -> "GroupSpec":
        check_keys(obj, ("name", "mean", "scale", "label_rule", "count"), (), "group spec")
        name = obj["name"]
        if not isinstance(name, str):
            raise DataError(f"group name must be a string, got {name!r}")
        entries = f"group {name!r}: mean and scale entries"
        return cls(name=name, mean=floats(obj["mean"], entries), scale=floats(obj["scale"], entries),
                   label_rule=LabelRule.from_json(obj["label_rule"]), count=obj["count"])


def _subset_column(unit: int, count: int, ids) -> np.ndarray:
    """Unit `unit`'s subset as a read-only int64 column in its order: `count`
    integer ids within int64, checked in that order."""
    if len(ids) != count:
        raise DataError(f"unit {unit}: subset has {len(ids)} ids, plan says {count}")
    column, past = _int64_ids(ids, f"unit {unit}: subset ids")
    if past is not None:
        raise DataError(f"unit {unit}: subset ids must fit in 64 bits, got {past}")
    column.flags.writeable = False
    return column


def _check_subsets(counts, subsets) -> tuple:
    """Unit k's subset holds counts[k] distinct integer ids within int64, none
    held by an earlier unit. Returns (each subset as `_subset_column` makes it,
    every id sorted in one read-only column).

    The first unit at fault is named, as a unit-by-unit check would: on one
    unit, `_subset_column`'s rules, then a repeat, then an overlap. Repeats and
    overlaps come from one stable sort of the units' concatenation: an id
    ranked after an equal one is held earlier in the unit or by an earlier
    unit, and the first unit holding such an id is at fault."""
    columns, fault = [], None
    for unit, (count, ids) in enumerate(zip(counts, subsets)):
        try:
            columns.append(_subset_column(unit, count, ids))
        except DataError as exc:
            fault = exc
            break
    every = np.concatenate([np.zeros(0, dtype=np.int64), *columns])
    by_id = _sorted_ids(every)
    held = _held(by_id)
    if held.any():
        ends = np.cumsum([len(column) for column in columns])
        unit = int(np.searchsorted(ends, np.argmax(held), side="right"))
        mine = slice(ends[unit] - len(columns[unit]), ends[unit])
        if len(np.unique(every[mine])) < len(columns[unit]):
            raise DataError(f"unit {unit}: subset repeats an observation id")
        raise DataError(f"subsets overlap on observation ids {np.sort(every[mine][held[mine]]).tolist()}")
    if fault:
        raise fault
    assigned = by_id[1]
    assigned.flags.writeable = False
    return tuple(columns), assigned


@dataclass(frozen=True)
class PartitionPlan:
    """Planned subset sizes: unit k gets counts[k] observations. An explicit plan's
    id lists become `partition`'s subsets, so they pass a `PartitionSet`'s check."""
    counts: tuple[int, ...]
    selection: str = "stratified"
    explicit_ids: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.selection not in SELECTIONS:
            raise DataError(f"unknown selection {self.selection!r}")
        if not all(map(_is_count, self.counts)):
            raise DataError(f"planned counts must be positive integers below 2**63, got {list(self.counts)}")
        if self.selection == "explicit":
            if self.explicit_ids is None or len(self.explicit_ids) != len(self.counts):
                raise DataError("explicit selection needs one id list per unit")
            # kept as Python ints, as given in order, so the plan writes as JSON
            columns, _ = _check_subsets(self.counts, self.explicit_ids)
            object.__setattr__(self, "explicit_ids", tuple(tuple(ids.tolist()) for ids in columns))
        elif self.explicit_ids is not None:
            raise DataError("explicit_ids only valid with selection='explicit'")

    @classmethod
    def from_counts(cls, counts, selection: str = "stratified",
                    explicit_ids=None) -> "PartitionPlan":
        ids = None if explicit_ids is None else tuple(tuple(lst) for lst in explicit_ids)
        return cls(counts=tuple(counts), selection=selection, explicit_ids=ids)


@dataclass(frozen=True, eq=False)
class PartitionSet:
    """Disjoint observation-id subsets, one per planned unit: subsets[k] holds
    unit k's ids as a read-only int64 column, in the order given (`partition`
    gives each one sorted). Equal, and hashed, by value."""
    subsets: tuple[np.ndarray, ...]
    plan: PartitionPlan
    seed: int

    def __post_init__(self):
        if not is_int(self.seed):
            raise DataError(f"partition seed must be an integer, got {self.seed!r}")
        if len(self.subsets) != len(self.plan.counts):
            raise DataError(f"{len(self.subsets)} subsets for a plan of {len(self.plan.counts)} units")
        subsets, assigned = _check_subsets(self.plan.counts, self.subsets)
        object.__setattr__(self, "subsets", subsets)
        object.__setattr__(self, "_assigned", assigned)

    def __eq__(self, other):
        if not isinstance(other, PartitionSet):
            return NotImplemented
        return (self.plan == other.plan and self.seed == other.seed
                and all(map(np.array_equal, self.subsets, other.subsets)))

    def __hash__(self):
        return hash((self.plan, self.seed, *(ids.tobytes() for ids in self.subsets)))

    def assigned_ids(self) -> np.ndarray:
        """Every unit's ids, sorted, as one read-only int64 column."""
        return self._assigned

    def to_json(self) -> dict:
        out = {"seed": self.seed,
               "selection": self.plan.selection,
               "plan": [[k, c] for k, c in enumerate(self.plan.counts)],
               "subsets": {str(k): ids.tolist() for k, ids in enumerate(self.subsets)}}
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
        return cls(subsets=tuple(obj["subsets"][k] for k in keys), plan=plan, seed=obj["seed"])


def generate_synthetic(specs, seed: int) -> Dataset:
    """Sample a group-structured dataset.

    Observation i of group g is mean_g + scale_g * row i of the group's draws,
    `rng_for(seed, "data", g).standard_normal((count_g, dim))`. The dataset is a
    pure function of (specs, seed), and since the rows fill in order, group g's
    first observations depend on neither its own count nor any other group.
    Ids run 0..n-1 in group order.
    """
    specs = tuple(specs)
    if not specs:
        raise DataError("need at least one group spec")
    dim = len(specs[0].mean)
    for spec in specs:
        if len(spec.mean) != dim:
            raise DataError(f"group {spec.name!r} has dimension {len(spec.mean)}, expected {dim}")
    blocks, labels = [], []
    for g, spec in enumerate(specs):
        draws = rng_for(seed, "data", g).standard_normal((spec.count, dim))
        # elementwise, so each value is the scalar m + s * d
        blocks.append(np.asarray(spec.mean) + np.asarray(spec.scale) * draws)
        labels.append(spec.label_rule.labels(blocks[-1]))
    counts = [spec.count for spec in specs]
    return Dataset(dim=dim, groups=tuple((g, spec.name) for g, spec in enumerate(specs)),
                   ids=np.arange(sum(counts)), row_groups=np.repeat(np.arange(len(specs)), counts),
                   labels=np.concatenate(labels), features=np.concatenate(blocks))


_GROUP_COMMENT = re.compile(r"^# group (\d+): (.*)$")


def _header(dim: int) -> list:
    return ["id", "group", "label"] + [f"f{i}" for i in range(dim)]


# rows `save_dataset` formats and writes at a time: its memory is one block's cells, not the file's
_SAVE_BLOCK = 8192


def save_dataset(dataset: Dataset, path) -> None:
    """Write the dataset CSV (group names carried in leading comment lines).

    A dataset read by `load_dataset` is written as the bytes it was parsed
    from, byte for byte. Any other is formatted `_SAVE_BLOCK` rows at a time,
    each block column by column: values leave the columns as Python ints and
    floats, so each feature is written as its float `repr`. A block's lines are
    joined and written at once; the bytes do not depend on the block size, and
    memory holds one block's cells, not the whole file's.
    """
    path = Path(path)
    if dataset.source is not None:
        path.write_bytes(dataset.source)
        return
    with path.open("w", encoding="utf-8", newline="") as fh:
        for g, name in dataset.groups:
            fh.write(f"# group {g}: {name}\n")
        # what csv.writer would write: ints and finite float reprs never need quoting
        fh.write(",".join(_header(dataset.dim)) + "\n")
        for start in range(0, len(dataset), _SAVE_BLOCK):
            block = slice(start, start + _SAVE_BLOCK)
            cells = [map(str, column[block].tolist()) for column in (dataset.ids, dataset.row_groups, dataset.labels)]
            cells += [map(repr, column) for column in dataset.features[block].T.tolist()]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _data_lines(raw: bytes, linenos: array, names: dict):
    """The data lines of a dataset CSV's bytes, without their line endings; on
    the side, each one's line number goes to `linenos` and each `# group`
    comment to `names`. The bytes are decoded as they stream, so no second
    whole-file string is made.

    Every file's group comments and header line are read here, and every data
    line the strict reader reads. A plain body (`_plain_body`) holds no line this
    generator would skip or strip differently, so a line number, a group comment
    and the byte-order mark mean the same to each reader."""
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if line.startswith("#"):
                m = _GROUP_COMMENT.match(line)
                if m:
                    names[int(m.group(1))] = m.group(2)
            elif line:
                linenos.append(lineno)
                yield line


def _read_rows(reader, width: int, ids: array, groups: array, labels: array, values: array):
    """Convert each record into the buffers as it is read, up to the first that
    fails to read or parse, and return that one's fault (None if none). Only
    parsing happens here; a parsed value breaking a row rule (a label of 2, say)
    is left to the row rules. A row's label goes in last, so `len(labels)`
    counts the rows read in full.

    This is the strict reader: Python's `csv`, `int` and `float` decide what a
    cell holds. It reads a file the C reader refused, so it names that file's
    earliest faulty line, and accepts what only these accept (a quoted cell,
    `1_000`, non-ASCII digits)."""
    try:
        for row in reader:
            if reader.line_num != len(labels) + 2:  # one line each for the header and every row
                return "quoted field runs past its line"
            if len(row) != width:
                return f"expected {width} columns, got {len(row)}"
            try:
                ids.append(int(row[0]))
                groups.append(int(row[1]))
            except ValueError:
                return "non-integer id/group"
            except OverflowError:
                return "observation id/group does not fit in 64 bits"
            try:
                label = int(row[2])
            except ValueError:
                return "non-integer label"
            try:
                values.extend(map(float, row[3:]))
            except ValueError:
                return "non-numeric feature"
            try:
                labels.append(label)
            except OverflowError:
                return "label does not fit in 64 bits"
    except csv.Error as exc:
        return f"malformed CSV ({exc})"
    return None


# numpy's number parsers strip these ASCII separators around a number as whitespace; int() and float() refuse them
_UNSPACED_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _may_hold_long_line(raw: bytes, limit: int) -> bool:
    """Whether a line of `raw` may be longer than `limit` characters.

    Such a line holds more than `limit` bytes with no line break, and so a whole
    stretch of `limit // 2 + 1` of them starting at a multiple of that length:
    a few `find`s cover the file. A line of `limit` bytes or less never answers
    True, since no whole stretch fits in it."""
    stretch = limit // 2 + 1
    return any(raw.find(b"\n", start, start + stretch) < 0 and raw.find(b"\r", start, start + stretch) < 0
               for start in range(0, len(raw) - stretch + 1, stretch))


def _plain_body(raw: bytes, header_line: int):
    """Where the data rows of `raw` start, if its body (what follows the header
    on line `header_line`) is plain, else None. A body is plain when every `\\r`
    in the file starts a `\\r\\n` and the body holds no `#`, no `"` and no empty
    line: then every body line is a data row, data row k is on line
    `header_line + 1 + k`, and the C reader, which reads no quotes, reads it as
    the strict reader does."""
    crlf = b"\r" in raw  # one scan, so an LF file pays for no other
    if crlf and raw.count(b"\r") != raw.count(b"\r\n"):
        return None
    end = -1
    for _ in range(header_line):  # the header ends at the header_line-th line break
        end = raw.find(b"\n", end + 1)
        if end < 0:  # the header is the last line, with no line break
            return len(raw)
    start = end + 1
    if (raw.startswith((b"\n", b"\r\n"), start) or raw.find(b"\n\n", start) >= 0
            or crlf and raw.find(b"\n\r\n", start) >= 0 or raw.find(b"#", start) >= 0
            or raw.find(b'"', start) >= 0):
        return None
    return start


def _body_lines(raw: bytes, start: int):
    """The lines of `raw` from byte `start` on, decoded as they stream, each
    ending in `\\n` (a `\\r\\n` is read as one); a byte-order mark there is part
    of its line."""
    body = io.BytesIO(raw)  # shares the bytes: no copy is made
    body.seek(start)
    return io.TextIOWrapper(body, encoding="utf-8", newline=None)


def _read_fast(lines, dim: int):
    """The columns of the data rows in `lines`, parsed by numpy's C reader, or
    None if it refuses one (a cell no number, a column count, bytes not UTF-8).
    `lines` is a plain body's decoding stream (`_body_lines`), which the C
    reader pulls lines from with no Python frame in between."""
    row = np.dtype([("id", "i8"), ("group", "i8"), ("label", "i8"), ("features", "f8", (dim,))])
    with warnings.catch_warnings():
        # numpy releases from 1.23 on may read an integer cell such as `1.5` through a float, as 1, and only warn
        warnings.simplefilter("error", DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)  # a header-only file
        try:
            # one line at a time from `lines`, so no whole-file string or list is made
            table = np.loadtxt(lines, dtype=row, delimiter=",", comments=None, quotechar=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None
    return [table["id"], table["group"], table["label"], table["features"]]


def _read_strict(first: str, lines, linenos: array):
    """(dim, columns, parse fault) of a dataset CSV's header line `first` and the
    data lines after it, read by Python's `csv` reader and numbers up to the
    first line that fails to read or parse."""
    # machine-typed buffers: 8 bytes a value, and an id, group or label beyond 64 bits does not fit
    ids, groups, labels, values = array("q"), array("q"), array("q"), array("d")
    reader = csv.reader(chain([first], lines), strict=True)
    try:
        header = next(reader)
    except csv.Error as exc:
        raise DataError(f"malformed CSV ({exc}), line {linenos[0]}") from None
    if reader.line_num != 1:
        raise DataError(f"quoted field runs past its line, line {linenos[0]}")
    if len(header) < 4 or header != _header(len(header) - 3):
        raise DataError(f"bad header, line {linenos[0]}: {first!r}")
    parse_fault = _read_rows(reader, len(header), ids, groups, labels, values)
    for _ in lines:  # past a fault, a group comment still declares its group
        pass
    dim = len(header) - 3
    n = len(labels)  # the rows read in full, all before any parse fault
    columns = [np.frombuffer(c, dtype=np.int64)[:n] for c in (ids, groups, labels)]
    columns.append(np.frombuffer(values, dtype=float)[:n * dim].reshape(n, dim))
    return dim, columns, parse_fault


def _read_csv(raw: bytes, path: Path):
    """(dim, group names, line numbers, columns, parse fault) of a dataset CSV's
    bytes: the C reader's if it takes every row, else the strict reader's.

    `_data_lines` reads the group comments and the header, once. A plain body
    (see `_plain_body`) after the canonical header goes to the C reader straight
    from the bytes, its line numbers counted, not recorded, unless the file
    holds what the two readers might read differently: a line past `csv`'s
    field size limit, or a byte the C reader strips as whitespace and Python's
    numbers refuse. Any other body, and one the C reader refuses, the strict
    reader reads on from the header."""
    names, linenos = {}, array("q")
    lines = _data_lines(raw, linenos, names)
    first = next(lines, None)
    if first is None:
        raise DataError(f"no header line in {path}")
    dim = first.count(",") - 2
    if (dim >= 1 and first == ",".join(_header(dim)) and not any(sep in raw for sep in _UNSPACED_SEPARATORS)
            and not _may_hold_long_line(raw, csv.field_size_limit())):
        start = _plain_body(raw, linenos[0])
        if start is not None:
            with _body_lines(raw, start) as body:
                columns = _read_fast(body, dim)
            if columns is not None:  # data row k is on the header's line + 1 + k
                return dim, names, range(linenos[0], linenos[0] + len(columns[0]) + 1), columns, None
    dim, columns, parse_fault = _read_strict(first, lines, linenos)
    return dim, names, linenos, columns, parse_fault


def load_dataset(path) -> Dataset:
    """Parse a dataset CSV (UTF-8, LF or CRLF); errors name the offending physical line.

    The file is read once, as bytes; the readers stream over those bytes, and
    the dataset keeps them as its `source`, so `save_dataset` writes the file
    back as it was read. A byte-order mark at the start of the file, as
    spreadsheet exports write it, is skipped; anywhere else it is part of the
    line it sits in.

    numpy's C reader (`np.loadtxt`) parses the rows of a file with the canonical
    header in one pass, from a stream over the bytes with no Python step per
    line, when they are a plain body: LF or CRLF line ends, and no `#`, no `"`
    and no empty line after the header; a row's line number is the header's
    plus its index plus one. The strict reader (`csv` with Python's `int` and
    `float`) reads any other file, and one whose rows the C reader refuses, on
    from the header. It stays the judge of every file the C reader does not take
    whole, so what a file may hold (a quoted cell, `1_000`, non-ASCII digits)
    and what a fault reads are its own. It streams records into typed buffers
    up to the first line that fails to read or parse.

    The rows read then build the dataset, whose constructor applies the row
    rules over the groups the `# group` comments declare (or else the rows
    hold). The earliest faulty line wins, whatever the check (CSV syntax, a
    quoted field running past its line, columns, numbers, a row rule), as in a
    row-by-row reader. A group list that is not dense names no line and comes
    last; a file that is not UTF-8, or a path that cannot be read, names the
    file, not a line."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    try:
        raw = path.read_bytes()
        dim, names, linenos, columns, parse_fault = _read_csv(raw, path)
    except UnicodeDecodeError as exc:
        raise DataError(f"dataset file {path} is not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"dataset file {path} cannot be read: {exc.strerror}") from None
    group_ids = sorted(names) if names else np.unique(columns[1]).tolist()
    try:
        dataset = Dataset(dim, tuple((g, names.get(g, f"group {g}")) for g in group_ids), *columns)
    except _RowFault as fault:  # its row was read in full, so it comes before a parse fault
        raise DataError(f"{fault}, line {linenos[1 + fault.args[0]]}") from None
    except DataError:  # the group list names no line, so a parse fault comes first
        if not parse_fault:
            raise
    if parse_fault:
        raise DataError(f"{parse_fault}, line {linenos[1 + len(columns[0])]}")
    object.__setattr__(dataset, "source", raw)
    return dataset


def partition(dataset: Dataset, plan: PartitionPlan, seed: int) -> PartitionSet:
    """Assign disjoint observation subsets to units per the plan."""
    total = sum(plan.counts)
    if total > len(dataset):
        raise DataError(f"plan needs {total} observations, dataset has {len(dataset)}")
    subsets = []
    if plan.selection == "contiguous":
        cursor = 0
        for count in plan.counts:
            subsets.append(np.sort(dataset.ids[cursor:cursor + count]))
            cursor += count
    elif plan.selection == "stratified":
        for unit, count in enumerate(plan.counts):
            if unit >= len(dataset.groups):  # group ids are dense 0..G-1
                raise DataError(f"stratified selection: no group {unit} for unit {unit}")
            pool = dataset.ids[np.flatnonzero(dataset.row_groups == unit)]
            if len(pool) < count:
                raise DataError(f"stratified group {unit} exhausted: has {len(pool)}, unit needs {count}")
            order = rng_for(seed, "partition", unit).permutation(len(pool))
            subsets.append(np.sort(pool[order[:count]]))
    else:  # explicit: the plan's check made each list int64 ids
        for unit, ids in enumerate(plan.explicit_ids):
            ids = np.sort(np.array(ids, dtype=np.int64))
            missing = np.setdiff1d(ids, dataset.ids)  # sorted, each once
            if len(missing):
                raise DataError(f"unit {unit}: explicit ids not in dataset: {missing.tolist()}")
            subsets.append(ids)
    return PartitionSet(subsets=tuple(subsets), plan=plan, seed=seed)


def make_test_sets(dataset: Dataset, partitions: PartitionSet, holdout_fraction: float,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Build the two evaluation id sets, each a sorted, read-only int64 column.

    non-overlapping: ids never assigned to any unit (unseen data).
    overlapping: a seeded sample of holdout_fraction of the assigned ids,
    measuring performance on data the units trained on.

    Both sets feed evaluation and the heatmap, so an empty overlapping sample
    or a group with no non-overlapping id is an error here, before training.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise DataError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    assigned = partitions.assigned_ids()
    unseen = np.ones(len(dataset), dtype=bool)
    unseen[dataset.row_index(assigned)] = False
    non_overlapping = np.sort(dataset.ids[unseen])
    if not len(non_overlapping):
        raise DataError("no unassigned observations: non-overlapping test set would be empty")
    covered = np.zeros(len(dataset.groups), dtype=bool)  # group ids are dense 0..G-1
    covered[dataset.row_groups[unseen]] = True
    uncovered = np.flatnonzero(~covered).tolist()
    if uncovered:
        raise DataError(f"group(s) {uncovered} have no unassigned observation: "
                        "the non-overlapping test set must cover every group")
    k = math.floor(holdout_fraction * len(assigned))
    if k == 0:
        raise DataError(f"holdout_fraction {holdout_fraction} of {len(assigned)} assigned ids "
                        "samples no overlapping test id")
    picks = rng_for(seed, "holdout").choice(len(assigned), size=k, replace=False)
    overlapping = np.sort(assigned[picks])
    for column in overlapping, non_overlapping:
        column.flags.writeable = False
    return overlapping, non_overlapping
