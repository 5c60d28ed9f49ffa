"""Config-driven experiment pipeline: generate, partition, train, evaluate, analyze.

All artifacts except the timing report are byte-deterministic functions of the
config document, so whole-bundle determinism can be checked by file comparison.
"""

import hashlib
import json
import math
import re
import shutil
import tempfile
from dataclasses import dataclass
from importlib.resources import files as _resource_files
from pathlib import Path

from ._version import ARTIFACT_VERSION
# `heatmap` and `neuron_contribution` are unused here, but the benchmark's tracer
# wraps every name in its table: keep them bound.
from .analysis import (STATISTICS, attribute, export_heatmap_csv, heatmap, readings,  # noqa: F401
                       render_heatmap_svg, save_attribution)
from .data import (Dataset, GroupSpec, PartitionPlan, PartitionSet, generate_synthetic,
                   load_dataset, make_test_sets, partition, save_dataset)
from .errors import ConfigError, DataError, StageError, SwitchNetError
from .federated import FedRunReport, collect, make_nodes, run_local_training, with_trained_units
from .jsonio import check_keys, is_int, loads, read_input, write_json
from .network import (AGGREGATIONS, ModularNetwork, evaluate, fit_readout,  # noqa: F401
                      neuron_contribution, save_network)
from .neuron import ACTIVATIONS, TrainConfig, _check_pair, init_unit, save_unit
from .switching import SwitchTable, build_switch

# Below this many SGD steps in a run (epochs x assigned observations) the nodes
# train in this process whatever `network.workers` says. On a shared 2-vCPU
# Intel Xeon, with every epoch of a fit in one call (the packaged config scaled
# x4-x12, three passes of 60 alternating pairs of in-process and 2-worker
# `run_local_training` per size, median 2-worker minus in-process, this process
# training one share and one child the other), the children lost at 20,000
# steps (+0.7, +2.6 and +5.0 ms; 0-22 of 60 pairs won), split at 30,000 (+1.3,
# -3.8 and -5.0 ms), and won every pass from 40,000: by 2.3-8.6 ms at 40,000
# (38-56 of 60) and 6.7-11.7 ms at 50,000 and 60,000 (52-60 of 60). An earlier
# round with one call per epoch (30 pairs per size, x2-x24) also split at
# 20,000-30,000 and won every pass from 40,000 to 100,000.
POOL_MIN_STEPS = 40_000
# the keys each config section must and may hold; `seed` is the one top-level value
_SECTIONS = {"data": ((), ("groups", "dataset", "dataset_sha256", "holdout_fraction")),
             "partition": (("counts",), ("selection", "explicit_ids")),
             "switch": (("entries",), ("n_units", "fallback")),
             "train": ((), ("learning_rate", "epochs", "loss", "shuffle")),
             "network": ((), ("activation", "aggregation", "heatmap_statistic", "workers")),
             "output": (("dir",), ())}


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    specs: "tuple[GroupSpec, ...] | None"
    dataset_path: "Path | None"
    plan: PartitionPlan
    switch: SwitchTable
    train: TrainConfig
    activation: str
    aggregation: str
    holdout_fraction: float
    heatmap_statistic: str
    workers: int
    output_dir: Path
    dataset_sha256: "str | None" = None

    @property
    def n_units(self) -> int:
        return len(self.plan.counts)


def _artifact(name: str) -> property:
    return property(lambda self: self.out_dir / name)


@dataclass(frozen=True)
class ReportBundle:
    """The artifact paths of a run's bundle directory, and the run's switch warnings."""
    out_dir: Path
    n_units: int
    switch_warnings: tuple = ()

    config_json = _artifact("config.json")
    dataset_csv = _artifact("dataset.csv")
    partition_json = _artifact("partition.json")
    test_sets_json = _artifact("test_sets.json")
    network_json = _artifact("network.json")
    metrics_overlapping_json = _artifact("metrics_overlapping.json")
    metrics_non_overlapping_json = _artifact("metrics_non_overlapping.json")
    heatmap_csv = _artifact("heatmap.csv")
    heatmap_svg = _artifact("heatmap.svg")
    attribution_json = _artifact("attribution.json")
    contribution_json = _artifact("contribution.json")
    fed_report_json = _artifact("fed_report.json")
    fed_timings_json = _artifact("fed_timings.json")
    manifest_json = _artifact("manifest.json")

    @property
    def unit_jsons(self) -> tuple:
        return tuple(self.out_dir / f"unit_{k}.json" for k in range(self.n_units))

    def all_paths(self) -> tuple:
        fixed = (self.config_json, self.dataset_csv, self.partition_json, self.test_sets_json,
                 self.network_json, self.metrics_overlapping_json, self.metrics_non_overlapping_json,
                 self.heatmap_csv, self.heatmap_svg, self.attribution_json, self.contribution_json,
                 self.fed_report_json, self.fed_timings_json, self.manifest_json)
        return self.unit_jsons + fixed

    def deterministic_paths(self) -> tuple:
        """Every artifact that must be byte-identical across reruns (timings excluded)."""
        return tuple(p for p in self.all_paths() if p != self.fed_timings_json)


def default_config_path() -> Path:
    """Path of the packaged default experiment config."""
    return Path(str(_resource_files("switchnet") / "configs" / "default.json"))


def _need_path(section: dict, key: str, where: str) -> str:
    """A path entry: a non-empty JSON string, never a number or `null` coerced by `str`."""
    value = section[key]
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where}.{key} must be a non-empty string, got {value!r}")
    return value


def parse_config(doc: dict, base_dir: "Path | None" = None) -> ExperimentConfig:
    """Validate a config document; raises ConfigError before anything runs."""
    check_keys(doc, ("seed", *_SECTIONS), (), "config", ConfigError)
    for name, (required, optional) in _SECTIONS.items():
        check_keys(doc[name], required, optional, f"config section {name!r}", ConfigError)
    if not is_int(doc["seed"]):
        raise ConfigError("seed must be an integer")
    base = Path(base_dir) if base_dir is not None else Path.cwd()

    data_sec = doc["data"]
    specs = None
    dataset_path = None
    if ("groups" in data_sec) == ("dataset" in data_sec):
        raise ConfigError("data section needs exactly one of 'groups' or 'dataset'")
    if "groups" in data_sec:
        try:
            specs = tuple(GroupSpec.from_json(g) for g in data_sec["groups"])
        except (SwitchNetError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad data.groups: {exc}") from exc
        if not specs:
            raise ConfigError("data.groups must be non-empty")
    else:
        dataset_path = base / _need_path(data_sec, "dataset", "data")
    dataset_sha256 = data_sec.get("dataset_sha256")
    if "dataset_sha256" in data_sec:
        if specs is not None:
            raise ConfigError("data.dataset_sha256 names the bytes of a data.dataset file; "
                              "this config has data.groups")
        if not isinstance(dataset_sha256, str) or not re.fullmatch("[0-9a-f]{64}", dataset_sha256):
            raise ConfigError("data.dataset_sha256 must be 64 lowercase hex digits, "
                              f"got {dataset_sha256!r}")
    holdout = data_sec.get("holdout_fraction", 0.2)
    if not isinstance(holdout, (int, float)) or not 0.0 < holdout < 1.0:
        raise ConfigError(f"data.holdout_fraction must be in (0, 1), got {holdout}")

    part_sec = doc["partition"]
    try:
        plan = PartitionPlan.from_counts(part_sec["counts"],
                                         selection=part_sec.get("selection", "stratified"),
                                         explicit_ids=part_sec.get("explicit_ids"))
    except (SwitchNetError, TypeError) as exc:
        raise ConfigError(f"bad partition plan: {exc}") from exc
    n_units = len(plan.counts)
    if math.floor(holdout * sum(plan.counts)) == 0:
        raise ConfigError(f"data.holdout_fraction {holdout} of the {sum(plan.counts)} assigned "
                          "observations samples no overlapping test id")

    switch_sec = doc["switch"]
    declared = switch_sec.get("n_units", n_units)
    if not is_int(declared) or declared != n_units:
        raise ConfigError(f"switch.n_units is {declared!r} but the partition plan has {n_units} units")
    entries_raw = switch_sec["entries"]
    if not isinstance(entries_raw, dict):
        raise ConfigError(f"switch.entries must be an object, got {entries_raw!r}")
    fallback = switch_sec.get("fallback", "error")
    try:
        switch, _ = build_switch(n_units, entries_raw, fallback,
                                 expected_groups=range(len(specs)) if specs is not None else None)
    except (SwitchNetError, TypeError) as exc:
        raise ConfigError(f"bad switch section: {exc}") from exc

    try:
        train = TrainConfig(seed=doc["seed"], **doc["train"])
    except SwitchNetError as exc:
        raise ConfigError(f"bad train section: {exc}") from exc

    net_sec = doc["network"]
    activation = net_sec.get("activation", "sigmoid")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"network.activation must be one of {ACTIVATIONS}, got {activation!r}")
    try:
        _check_pair(activation, train.loss)
    except SwitchNetError as exc:
        raise ConfigError(f"network.activation cannot train with train.loss: {exc}") from None
    aggregation = net_sec.get("aggregation", "router-mean")
    if aggregation not in AGGREGATIONS:
        raise ConfigError(f"network.aggregation must be one of {AGGREGATIONS}, got {aggregation!r}")
    statistic = net_sec.get("heatmap_statistic", "mean")
    if statistic not in STATISTICS:
        raise ConfigError(f"network.heatmap_statistic must be one of {STATISTICS}, got {statistic!r}")
    workers = net_sec.get("workers", 1)
    if not is_int(workers) or workers < 1:
        raise ConfigError(f"network.workers must be a positive integer, got {workers!r}")

    if specs is not None and plan.selection == "stratified":
        for unit, count in enumerate(plan.counts):
            if unit >= len(specs):
                raise ConfigError(f"stratified plan unit {unit} has no matching group (only {len(specs)} groups)")
            if specs[unit].count <= count:
                raise ConfigError(
                    f"stratified plan unit {unit} needs {count} observations, group generates "
                    f"{specs[unit].count}; the non-overlapping test set needs at least one left over")

    out_sec = doc["output"]
    out_dir = Path(_need_path(out_sec, "dir", "output"))

    return ExperimentConfig(seed=doc["seed"], specs=specs, dataset_path=dataset_path, plan=plan,
                            switch=switch, train=train, activation=activation,
                            aggregation=aggregation, holdout_fraction=float(holdout),
                            heatmap_statistic=statistic, workers=workers, output_dir=out_dir,
                            dataset_sha256=dataset_sha256)


def load_config(path, overrides=()) -> ExperimentConfig:
    """Read a config file (UTF-8, with or without a byte-order mark), apply
    dotted-key overrides, validate."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = read_input(path, "config file")
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    return parse_config(apply_overrides(doc, overrides), base_dir=path.parent)


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply `a.b.c=value` overrides (values parsed as strict JSON, falling back to strings)."""
    doc = json.loads(json.dumps(doc))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = loads(raw)
        except ValueError:
            value = raw
        target = doc
        parts = key.split(".")
        try:
            for i, part in enumerate(parts[:-1]):
                if isinstance(target, list):
                    target = target[int(part)]
                else:
                    target = target.setdefault(part, {})
                if not isinstance(target, (dict, list)):
                    raise ConfigError(f"override {key!r}: {'.'.join(parts[:i + 1])} is not a section")
            leaf = parts[-1]
            if isinstance(target, list):
                target[int(leaf)] = value
            else:
                target[leaf] = value
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"override {key!r} does not fit the config structure: {exc}") from exc
    return doc


def config_to_doc(config: ExperimentConfig) -> dict:
    """Canonical config document: what the bundle's config.json and the manifest's
    hash hold, less the `data.dataset_sha256` a run on a CSV adds."""
    data_sec = {"holdout_fraction": config.holdout_fraction}
    if config.specs is not None:
        data_sec["groups"] = [s.to_json() for s in config.specs]
    else:
        data_sec["dataset"] = str(config.dataset_path)
    part_sec = {"selection": config.plan.selection, "counts": list(config.plan.counts)}
    if config.plan.explicit_ids is not None:
        part_sec["explicit_ids"] = [list(ids) for ids in config.plan.explicit_ids]
    return {
        "seed": config.seed,
        "data": data_sec,
        "partition": part_sec,
        "switch": config.switch.to_json(),
        "train": {"learning_rate": config.train.learning_rate, "epochs": config.train.epochs,
                  "loss": config.train.loss, "shuffle": config.train.shuffle},
        "network": {"activation": config.activation, "aggregation": config.aggregation,
                    "heatmap_statistic": config.heatmap_statistic,
                    "workers": config.workers},
        "output": {"dir": str(config.output_dir)},
    }


def _stage(name, fn):
    try:
        return fn()
    except SwitchNetError as exc:
        raise StageError(name, str(exc)) from exc


# The stages below are shared by `run_pipeline` and the CLI subcommands, so a
# chain of subcommands reproduces the pipeline's artifacts by construction.
# They call the library through this module's names, which the benchmark's
# tracer wraps: keep those names bound here.

def data_stage(config: ExperimentConfig) -> Dataset:
    """The config's dataset: generated from its group specs, or read from its CSV.

    A CSV whose bytes do not hash to the config's `data.dataset_sha256`, when it
    gives one, is a DataError naming the file and both hashes.
    """
    if config.specs is not None:
        return generate_synthetic(config.specs, config.seed)
    dataset = load_dataset(config.dataset_path)
    if config.dataset_sha256 is not None:
        actual = hashlib.sha256(dataset.source).hexdigest()
        if actual != config.dataset_sha256:
            raise DataError(f"dataset {config.dataset_path} has sha256 {actual}, but the config "
                            f"records data.dataset_sha256 {config.dataset_sha256}")
    return dataset


def switch_stage(config: ExperimentConfig, dataset: Dataset) -> tuple[SwitchTable, tuple[str, ...]]:
    """The config's switch table and its warnings, checked against the dataset's groups."""
    return build_switch(config.n_units, config.switch.entries, config.switch.fallback,
                        expected_groups=[g for g, _ in dataset.groups])


def train_stage(config: ExperimentConfig, dataset: Dataset, parts: PartitionSet,
                switch: SwitchTable) -> tuple[ModularNetwork, FedRunReport]:
    """Train one unit per subset on its own virtual node and collect the network.

    `config.workers` is an upper bound: a run of fewer than `POOL_MIN_STEPS` SGD
    steps trains in this process, since child processes would cost more than
    they save.
    The report records the worker count used.
    """
    units = [init_unit(dataset.dim, config.activation, k, config.seed) for k in range(config.n_units)]
    nodes = make_nodes(parts, dataset, units)
    steps = config.train.epochs * sum(len(node.local_data) for node in nodes)
    workers = config.workers if steps >= POOL_MIN_STEPS else 1
    trained, fed = run_local_training(nodes, config.train, workers=workers)
    return collect(with_trained_units(nodes, trained), switch, config.aggregation), fed


def readout_stage(config: ExperimentConfig, net: ModularNetwork, dataset: Dataset,
                  parts: PartitionSet) -> ModularNetwork:
    """Fit the linear readout on the assigned ids; a router-mean network is returned as is."""
    if config.aggregation != "linear-readout":
        return net
    return fit_readout(net, parts.assigned_ids(), dataset, config.train)


def write_test_sets(path, config: ExperimentConfig, overlapping, non_overlapping) -> None:
    """Write `test_sets.json`: the two id columns `make_test_sets` draws."""
    write_json({"holdout_fraction": config.holdout_fraction,
                "overlapping": overlapping, "non_overlapping": non_overlapping}, path)


def write_training(bundle: ReportBundle, net: ModularNetwork, fed: FedRunReport) -> None:
    """Write what training produces: the units, the network, the fed report and its timings."""
    for unit, path in zip(net.units, bundle.unit_jsons):
        save_unit(unit, path)
    save_network(net, bundle.network_json)
    write_json(fed.to_json(), bundle.fed_report_json)
    write_json(fed.timings_to_json(), bundle.fed_timings_json)


def _is_previous_bundle(out_dir: Path) -> bool:
    """True when `out_dir/manifest.json` is a bundle manifest listing every other file there."""
    try:
        doc = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError):
        return False
    if not (isinstance(doc, dict) and {"version", "config_sha256", "artifacts"} <= doc.keys()
            and isinstance(doc["artifacts"], list)
            and all(isinstance(name, str) for name in doc["artifacts"])):
        return False
    listed = set(doc["artifacts"]) | {"manifest.json"}
    return all(p.name in listed and p.is_file() for p in out_dir.iterdir())


def _not_a_directory(path: Path) -> "Path | None":
    """What refuses `path` as an output directory, or None: `path` if it exists
    and is not a directory, else its nearest existing ancestor if that is not one."""
    if path.exists():
        return None if path.is_dir() else path
    nearest = next(p for p in path.absolute().parents if p.exists())  # the root always exists
    return None if nearest.is_dir() else nearest


def _check_output_dir(out_dir: Path) -> None:
    """A run may replace a missing or empty directory or a previous bundle, never
    foreign files and never the working directory or one that holds it; and it
    may create a missing one only under directories.

    `out_dir` is resolved.
    """
    cwd = Path.cwd().resolve()
    if out_dir == cwd or out_dir in cwd.parents:
        raise ConfigError(f"output.dir {out_dir} is the working directory or holds it; "
                          "refusing to replace it")
    blocker = _not_a_directory(out_dir)
    if blocker is not None:
        raise ConfigError(f"output.dir {out_dir} exists and is not a directory" if blocker == out_dir
                          else f"output.dir {out_dir} is under {blocker}, which exists and is not a directory")
    if out_dir.is_dir() and any(out_dir.iterdir()) and not _is_previous_bundle(out_dir):
        raise ConfigError(f"output.dir {out_dir} is not empty and is not a previous bundle "
                          "(a manifest.json listing every other file in it); refusing to replace it")


def _move_into_place(staged: Path, out_dir: Path, aside: Path) -> None:
    """Rename the staged bundle to `out_dir`, moving a previous one to `aside`
    first and back again if the swap fails."""
    if not out_dir.exists():
        staged.rename(out_dir)
        return
    out_dir.rename(aside)
    try:
        staged.rename(out_dir)
    except OSError as exc:
        try:
            aside.rename(out_dir)
        except OSError:
            raise OSError(f"could not move the new bundle to {out_dir} nor the previous "
                          f"bundle back; the previous bundle is kept at {aside}") from exc
        raise


def run_pipeline(config: ExperimentConfig) -> ReportBundle:
    """Run the full experiment and write the artifact bundle.

    Compute happens first. The bundle is then written into a temporary sibling
    of `output.dir` and renamed into place, so a failing run leaves no partial
    bundle behind and a previous bundle is replaced whole: none of its files
    outlives the rerun. An `output.dir` holding anything but a previous bundle
    (a `manifest.json` listing every other file in it), or holding the working
    directory, is refused before any compute.
    """
    out_dir = config.output_dir.resolve()
    _check_output_dir(out_dir)
    seed = config.seed
    dataset = _stage("data", lambda: data_stage(config))
    parts = _stage("partition", lambda: partition(dataset, config.plan, seed))
    overlapping, non_overlapping = _stage(
        "test-sets", lambda: make_test_sets(dataset, parts, config.holdout_fraction, seed))
    switch, switch_warnings = _stage("switch", lambda: switch_stage(config, dataset))
    net, fed = _stage("train", lambda: train_stage(config, dataset, parts, switch))
    net = _stage("readout", lambda: readout_stage(config, net, dataset, parts))

    metrics_over = _stage("evaluate", lambda: evaluate(net, overlapping, dataset, "overlapping"))

    def analysis_stage():
        # one pass over the unseen ids gives their metrics, ablation and heatmap
        metrics, contribution, matrix = readings(net, non_overlapping, dataset, "non-overlapping",
                                                 config.heatmap_statistic)
        return metrics, matrix, attribute(matrix), contribution

    metrics_non, matrix, attribution, contribution = _stage("analysis", analysis_stage)

    # config.json and the manifest's hash: for a CSV run, they name the bytes read, not only the path;
    # a hash the config gives, the data stage has checked against those bytes already
    doc = config_to_doc(config)
    if dataset.source is not None:
        doc["data"]["dataset_sha256"] = config.dataset_sha256 or hashlib.sha256(dataset.source).hexdigest()
    config_sha256 = hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()

    def write_files(bundle: ReportBundle) -> None:
        write_json(doc, bundle.config_json)
        save_dataset(dataset, bundle.dataset_csv)
        write_json(parts.to_json(), bundle.partition_json)
        write_test_sets(bundle.test_sets_json, config, overlapping, non_overlapping)
        write_training(bundle, net, fed)
        write_json(metrics_over.to_json(), bundle.metrics_overlapping_json)
        write_json(metrics_non.to_json(), bundle.metrics_non_overlapping_json)
        export_heatmap_csv(matrix, bundle.heatmap_csv)
        render_heatmap_svg(matrix, bundle.heatmap_svg)
        save_attribution(attribution, bundle.attribution_json)
        write_json(contribution.to_json(), bundle.contribution_json)
        write_json({"version": ARTIFACT_VERSION,
                    "config_sha256": config_sha256,
                    "switch_warnings": list(switch_warnings),
                    "artifacts": sorted(p.name for p in bundle.all_paths() if p != bundle.manifest_json)},
                   bundle.manifest_json)

    def write_stage():
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
        staged, aside = work / "bundle", work / "previous"
        swapped = False
        try:
            staged.mkdir()
            write_files(ReportBundle(staged, net.n_units))
            _check_output_dir(out_dir)
            _move_into_place(staged, out_dir, aside)
            swapped = True
        finally:
            # after a failed swap, `aside` exists only if the previous bundle could not be put back
            if swapped or not aside.exists():
                shutil.rmtree(work, ignore_errors=True)
        return ReportBundle(config.output_dir, net.n_units, switch_warnings)

    return _stage("write", write_stage)
