import hashlib
import json
import math
import multiprocessing.process
import re
from pathlib import Path

import numpy as np
import pytest

import switchnet as sn
import switchnet.pipeline
from switchnet import cli
from switchnet.cli import main


def fast_sets(out_dir, epochs=8, workers=1):
    return [f"output.dir={out_dir}", f"train.epochs={epochs}", f"network.workers={workers}"]


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def children_always(monkeypatch):
    """Let the pipeline train on child processes whatever the run's size."""
    monkeypatch.setattr(switchnet.pipeline, "POOL_MIN_STEPS", 0)


@pytest.fixture
def no_children(monkeypatch):
    """Fail any attempt to start a child process."""
    def refuse(*args, **kwargs):
        raise AssertionError("a child process was started")
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


# ---------------------------------------------------------------- config handling

def test_default_config_parses():
    config = sn.load_config(sn.default_config_path())
    assert config.n_units == 5
    assert config.plan.counts == (20, 30, 10, 20, 20)
    assert config.seed == 42
    assert config.aggregation == "router-mean"


def test_default_config_trains_in_one_process():
    assert sn.load_config(sn.default_config_path()).workers == 1


def test_overrides_dotted_keys():
    config = sn.load_config(sn.default_config_path(),
                            ["train.epochs=3", "seed=7", "network.workers=2",
                             "data.holdout_fraction=0.4"])
    assert config.train.epochs == 3
    assert config.seed == 7
    assert config.workers == 2
    assert config.holdout_fraction == 0.4


def test_override_list_index():
    config = sn.load_config(sn.default_config_path(), ["data.groups.2.count=40"])
    assert config.specs[2].count == 40


def test_bad_override_shape():
    with pytest.raises(sn.ConfigError, match="key=value"):
        sn.load_config(sn.default_config_path(), ["train.epochs"])


def test_mismatched_switch_units_rejected():
    with pytest.raises(sn.ConfigError, match="n_units is 4"):
        sn.load_config(sn.default_config_path(), ["switch.n_units=4"])


def test_stratified_overdraw_rejected_at_parse():
    with pytest.raises(sn.ConfigError, match="unit 0 needs"):
        sn.load_config(sn.default_config_path(), ["data.groups.0.count=10"])


def test_unknown_section_rejected():
    # jsonio.check_keys reads the top level too ("unknown config sections: [...]" before)
    with pytest.raises(sn.ConfigError, match=r"^unknown keys in config: \['bogus'\]$"):
        sn.parse_config({"seed": 1, "bogus": {}})


@pytest.mark.parametrize("override, section, key", [
    ("train.epoch=3", "train", "epoch"), ("network.worker=4", "network", "worker"),
    ("output.dirr=x", "output", "dirr"), ("data.holdout=0.3", "data", "holdout"),
    ("partition.count=[1]", "partition", "count"), ("switch.fallbak=error", "switch", "fallbak")])
def test_unknown_key_in_a_section_is_config_error(tmp_path, capsys, override, section, key):
    out = tmp_path / "out"
    assert run_cli("pipeline", "--set", override, "--set", f"output.dir={out}") == 1
    assert capsys.readouterr().err == f"config error: unknown keys in config section {section!r}: {[key]}\n"
    assert not out.exists()


@pytest.mark.parametrize("section, key", [("partition", "counts"), ("switch", "entries"), ("output", "dir")])
def test_missing_required_key_in_a_section_is_config_error(section, key):
    doc = json.loads(sn.default_config_path().read_text(encoding="utf-8"))
    del doc[section][key]
    with pytest.raises(sn.ConfigError, match=rf"^missing keys in config section '{section}': \['{key}'\]$"):
        sn.parse_config(doc)


@pytest.mark.parametrize("command", ["gen-data", "pipeline"])
def test_overlapping_explicit_lists_are_config_error(tmp_path, capsys, command):
    overrides = ["partition.selection=explicit", "partition.explicit_ids=[[0,1],[1,30],[60],[80],[100]]",
                 "partition.counts=[2,2,1,1,1]", f"output.dir={tmp_path / 'out'}"]
    extra = ["--out", tmp_path / "data.csv"] if command == "gen-data" else []
    assert run_cli(command, *[a for o in overrides for a in ("--set", o)], *extra) == 1
    assert capsys.readouterr().err == ("config error: bad partition plan: "
                                       "subsets overlap on observation ids [1]\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["output.dir", "data.dataset"])
@pytest.mark.parametrize("raw", ["null", "7", "[]", ""])
def test_path_entries_must_be_non_empty_strings(tmp_path, monkeypatch, capsys, key, raw):
    monkeypatch.chdir(tmp_path)
    doc = json.loads(sn.default_config_path().read_text())
    doc["output"]["dir"] = "out"
    if key == "data.dataset":
        doc["data"] = {"dataset": "data.csv", "holdout_fraction": 0.2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(sn.ConfigError, match=f"^{key} must be a non-empty string, got "):
        sn.load_config(cfg_path, [f"{key}={raw}"])
    assert run_cli("pipeline", "--config", cfg_path, "--set", f"{key}={raw}") == 1
    assert capsys.readouterr().err.startswith(f"config error: {key} must be a non-empty string")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_config_requires_exactly_one_data_source(tmp_path):
    doc = json.loads(sn.default_config_path().read_text())
    doc["data"]["dataset"] = "somewhere.csv"
    with pytest.raises(sn.ConfigError, match="exactly one"):
        sn.parse_config(doc)


def test_unroutable_synthetic_config_rejected_at_parse(tmp_path, capsys):
    doc = json.loads(sn.default_config_path().read_text())
    del doc["switch"]["entries"]["4"]
    doc["output"]["dir"] = str(tmp_path / "out")
    with pytest.raises(sn.ConfigError, match=r"group\(s\) \[4\]"):
        sn.parse_config(doc)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert run_cli("pipeline", "--config", cfg_path) == 1
    assert not (tmp_path / "out").exists()
    assert "config error" in capsys.readouterr().err
    doc["switch"]["fallback"] = "all-active"
    sn.parse_config(doc)


@pytest.mark.parametrize("key", [" 1 ", "01", "1.0", "a"])
def test_non_canonical_switch_key_is_config_error(tmp_path, capsys, key):
    doc = json.loads(sn.default_config_path().read_text())
    doc["switch"]["entries"][key] = doc["switch"]["entries"].pop("1")
    doc["output"]["dir"] = str(tmp_path / "out")
    with pytest.raises(sn.ConfigError, match="switch group key"):
        sn.parse_config(doc)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert run_cli("pipeline", "--config", cfg_path) == 1
    assert not (tmp_path / "out").exists()
    assert "config error" in capsys.readouterr().err


def test_group_name_with_line_break_is_config_error(tmp_path, capsys):
    doc = json.loads(sn.default_config_path().read_text())
    doc["data"]["groups"][0]["name"] = "Young\nLow Income"
    doc["output"]["dir"] = str(tmp_path / "out")
    with pytest.raises(sn.ConfigError, match="line break"):
        sn.parse_config(doc)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert run_cli("pipeline", "--config", cfg_path) == 1
    assert not (tmp_path / "out").exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "network.workers=null", "network.workers=0", "network.workers=true", "network.workers=1.5",
    'network.workers="2"', "train.epochs=true", "train.epochs=2.5", "train.learning_rate=true",
    "train.learning_rate=NaN", "train.shuffle=no", "train.shuffle=1",
    "partition.counts=[20.7, 30, 10, 20, 20]", "partition.counts=[true, 30, 10, 20, 20]",
    "partition.counts=5", "data.groups.0.count=25.9", "data.groups.0.count=true",
    "switch.entries.0=[0.7]", "switch.entries.0=[true]", 'switch.entries.0=["0"]',
    "switch.entries.0=[0, 0.0]", "switch.n_units=5.0",
    'data.groups.0.mean=["-2", true]', "data.groups.0.scale=[0.35, null]", "data.groups.0.name=7",
    'partition={"selection": "explicit", "counts": [1, 1, 1, 1, 1], '
    '"explicit_ids": [[0.5], [25], [60], [75], [100]]}',
    'partition={"selection": "explicit", "counts": [1, 1, 1, 1, 1], '
    '"explicit_ids": [[true], [25], [60], [75], [100]]}'])
def test_mistyped_setting_is_config_error(tmp_path, capsys, override):
    out = tmp_path / "out"
    with pytest.raises(sn.ConfigError):
        sn.load_config(sn.default_config_path(), [override])
    assert run_cli("pipeline", "--set", override, "--set", f"output.dir={out}") == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_override_reads_nan_as_a_string(tmp_path, capsys):
    # JSON has no NaN or Infinity, so such a value is the plain string it reads as
    assert sn.apply_overrides({}, ["a=NaN", "b=-Infinity", "c=[1.0, Infinity]"]) == {
        "a": "NaN", "b": "-Infinity", "c": "[1.0, Infinity]"}
    out = tmp_path / "out"
    rule = 'data.groups.0.label_rule={"kind": "linear-threshold", "weights": [NaN, 1.0]}'
    assert run_cli("pipeline", "--set", rule, "--set", f"output.dir={out}") == 1
    assert "config error: bad data.groups: unknown label rule" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_config_file_with_a_non_finite_constant_is_config_error(tmp_path, capsys, constant):
    doc = json.loads(sn.default_config_path().read_text(encoding="utf-8"))
    doc["data"]["groups"][0]["label_rule"] = {"kind": "linear-threshold", "weights": [0.5, 1.0]}
    doc["output"]["dir"] = str(tmp_path / "out")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc).replace("0.5, 1.0", f"{constant}, 1.0"))
    message = f"config file {cfg_path} is not valid JSON: {constant} is not a JSON number"
    with pytest.raises(sn.ConfigError, match=f"^{re.escape(message)}$"):
        sn.load_config(cfg_path)
    assert run_cli("pipeline", "--config", cfg_path) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, message", [
    ("partition.counts=[25, 30, 10, 20, 20]", "unit 0 needs 25 observations, group generates 25"),
    ("data.holdout_fraction=0.001", "samples no overlapping test id")])
def test_unevaluable_test_sets_are_config_errors(tmp_path, capsys, override, message):
    out = tmp_path / "out"
    with pytest.raises(sn.ConfigError, match=message):
        sn.load_config(sn.default_config_path(), [override])
    assert run_cli("pipeline", "--set", override, "--set", f"output.dir={out}") == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_activation_that_cannot_train_with_the_loss_is_config_error(tmp_path, monkeypatch, capsys,
                                                                    small_bundle, activation):
    # the default loss is bce, defined only for sigmoid units
    message = ("config error: network.activation cannot train with train.loss: "
               f"bce loss is only defined with sigmoid units, got '{activation}'\n")
    override = f"network.activation={activation}"
    with pytest.raises(sn.ConfigError, match=f"got '{activation}'$"):
        sn.load_config(sn.default_config_path(), [override])
    refuse_compute(monkeypatch)
    inputs = ["--dataset", small_bundle / "dataset.csv", "--partition", small_bundle / "partition.json"]
    for argv in (["pipeline", "--set", f"output.dir={tmp_path / 'out'}"],
                 ["fedsim", *inputs, "--out-dir", tmp_path / "fed"],
                 ["train", *inputs, "--unit", 0, "--out-unit", tmp_path / "unit_0.json"]):
        assert run_cli(*argv, "--set", override) == 1
        assert capsys.readouterr().err == message
    assert not any(tmp_path.iterdir())


def test_relu_units_train_with_mse(tmp_path):
    out = tmp_path / "out"
    sets = fast_sets(out, epochs=2) + ["network.activation=relu", "train.loss=mse"]
    assert run_cli("pipeline", *[a for s in sets for a in ("--set", s)]) == 0
    assert sn.load_network(out / "network.json").units[0].activation == "relu"


def test_dataset_group_left_out_of_test_sets_fails_before_training(tmp_path, monkeypatch, capsys):
    base = sn.load_config(sn.default_config_path())
    csv_path = tmp_path / "data.csv"
    sn.save_dataset(sn.generate_synthetic(base.specs, base.seed), csv_path)
    doc = json.loads(sn.default_config_path().read_text())
    doc["data"] = {"dataset": str(csv_path), "holdout_fraction": 0.2}
    doc["partition"]["counts"] = [25, 30, 10, 20, 20]  # all of group 0
    doc["output"]["dir"] = str(tmp_path / "out")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    def no_training(*args, **kwargs):
        raise AssertionError("a unit trained")

    monkeypatch.setattr("switchnet.pipeline.run_local_training", no_training)
    assert run_cli("pipeline", "--config", cfg_path) == 2
    assert "stage 'test-sets': group(s) [0] have no unassigned" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- pipeline runs

def test_pipeline_writes_complete_bundle(tmp_path):
    config = sn.load_config(sn.default_config_path(), fast_sets(tmp_path / "out"))
    bundle = sn.run_pipeline(config)
    for path in bundle.all_paths():
        assert path.exists(), path.name
    manifest = json.loads(bundle.manifest_json.read_text())
    assert manifest["version"] == sn.__version__
    assert "dataset.csv" in manifest["artifacts"]
    assert manifest["switch_warnings"] == []


def test_pipeline_deterministic_rerun_same_config(tmp_path):
    out = tmp_path / "out"
    config = sn.load_config(sn.default_config_path(), fast_sets(out, epochs=5))
    bundle = sn.run_pipeline(config)
    snapshot = {p.name: p.read_bytes() for p in bundle.deterministic_paths()}
    bundle2 = sn.run_pipeline(config)
    for p in bundle2.deterministic_paths():
        assert p.read_bytes() == snapshot[p.name], f"{p.name} changed across reruns"


def test_bundle_is_independent_of_worker_count(tmp_path, children_always):
    bundles = [sn.run_pipeline(sn.load_config(sn.default_config_path(),
                                              fast_sets(tmp_path / f"w{w}", epochs=5, workers=w)))
               for w in (1, 2)]
    names = [sorted(p.name for p in b.out_dir.iterdir()) for b in bundles]
    assert names[0] == names[1]
    differ = [n for n in names[0]
              if (bundles[0].out_dir / n).read_bytes() != (bundles[1].out_dir / n).read_bytes()]
    assert set(differ) <= {"config.json", "manifest.json", "fed_timings.json"}
    assert "fed_report.json" in names[0]
    assert [json.loads(b.fed_timings_json.read_text())["workers"] for b in bundles] == [1, 2]


def test_small_run_trains_in_this_process(tmp_path, capsys, no_children):
    # 5 epochs x 100 assigned observations is far below the child threshold
    bundle = sn.run_pipeline(sn.load_config(sn.default_config_path(),
                                            fast_sets(tmp_path / "out", epochs=5, workers=2)))
    assert json.loads(bundle.fed_timings_json.read_text())["workers"] == 1
    d = bundle.out_dir
    assert run_cli("fedsim", "--set", "train.epochs=5", "--set", "network.workers=2",
                   "--dataset", d / "dataset.csv", "--partition", d / "partition.json",
                   "--out-dir", tmp_path / "fed") == 0
    assert "with 1 worker(s)" in capsys.readouterr().out
    assert json.loads((tmp_path / "fed" / "fed_timings.json").read_text())["workers"] == 1


def test_pool_threshold_counts_epochs_times_assigned_observations(monkeypatch):
    config = sn.load_config(sn.default_config_path(), ["train.epochs=3", "network.workers=2"])
    dataset = sn.generate_synthetic(config.specs, config.seed)
    parts = sn.partition(dataset, config.plan, config.seed)
    switch, _ = switchnet.pipeline.switch_stage(config, dataset)
    steps = 3 * sum(config.plan.counts)
    used = {}
    for threshold in (steps + 1, steps):
        monkeypatch.setattr(switchnet.pipeline, "POOL_MIN_STEPS", threshold)
        used[threshold] = switchnet.pipeline.train_stage(config, dataset, parts, switch)[1].workers
    assert used == {steps + 1: 1, steps: 2}


def test_pipeline_runs_linear_readout_variant(tmp_path):
    config = sn.load_config(sn.default_config_path(),
                            fast_sets(tmp_path / "out") + ["network.aggregation=linear-readout"])
    bundle = sn.run_pipeline(config)
    net = sn.load_network(bundle.network_json)
    assert isinstance(net.aggregation, sn.LinearReadout)


def test_pipeline_from_dataset_file(tmp_path):
    base = sn.load_config(sn.default_config_path(), fast_sets(tmp_path / "a", epochs=4))
    dataset = sn.generate_synthetic(base.specs, base.seed)
    csv_path = tmp_path / "data.csv"
    sn.save_dataset(dataset, csv_path)
    doc = json.loads(sn.default_config_path().read_text())
    doc["data"] = {"dataset": str(csv_path), "holdout_fraction": 0.2}
    doc["train"]["epochs"] = 4
    doc["network"]["workers"] = 1
    doc["output"]["dir"] = str(tmp_path / "b")
    bundle = sn.run_pipeline(sn.parse_config(doc))
    assert bundle.dataset_csv.read_bytes() == csv_path.read_bytes()


# ---------------------------------------------------------------- the bundle carries its input

def _canonical_csv(tmp_path) -> bytes:
    """The packaged config's dataset as `save_dataset` formats it."""
    base = sn.load_config(sn.default_config_path())
    path = tmp_path / "formatted.csv"
    sn.save_dataset(sn.generate_synthetic(base.specs, base.seed), path)
    return path.read_bytes()


def _csv_run(tmp_path, raw: bytes, epochs=4):
    """The packaged config run on a CSV holding `raw`, always at one input and one output path."""
    csv_path = tmp_path / "data.csv"
    csv_path.write_bytes(raw)
    doc = json.loads(sn.default_config_path().read_text())
    doc["data"] = {"dataset": str(csv_path), "holdout_fraction": 0.2}
    doc["train"]["epochs"] = epochs
    doc["network"]["workers"] = 1
    doc["output"]["dir"] = str(tmp_path / "out")
    return sn.run_pipeline(sn.parse_config(doc))


def _config_hash(config_json: Path) -> str:
    doc = json.loads(config_json.read_text())
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def test_non_canonical_input_is_carried_verbatim_and_reproduces(tmp_path):
    # a byte-order mark, CRLF line ends and a `1.50` feature
    lines = _canonical_csv(tmp_path).decode().splitlines()
    row = next(k for k, line in enumerate(lines) if line[0].isdigit())
    lines[row] = ",".join(lines[row].split(",")[:3] + ["1.50"] + lines[row].split(",")[4:])
    raw = b"\xef\xbb\xbf" + "\r\n".join(lines).encode() + b"\r\n"
    bundle = _csv_run(tmp_path, raw, epochs=6)
    assert bundle.dataset_csv.read_bytes() == raw

    # the CLI chain from the bundle's own dataset.csv reproduces the bundle
    b, d = bundle.out_dir, tmp_path / "chain"
    d.mkdir()
    set_args = ["--set", "train.epochs=6", "--set", "network.workers=1"]
    assert run_cli("partition", *set_args, "--dataset", b / "dataset.csv",
                   "--out", d / "partition.json", "--test-sets", d / "test_sets.json") == 0
    assert run_cli("fedsim", *set_args, "--dataset", b / "dataset.csv",
                   "--partition", d / "partition.json", "--out-dir", d) == 0
    for kind in ("overlapping", "non-overlapping"):
        assert run_cli("eval", "--network", d / "network.json", "--dataset", b / "dataset.csv",
                       "--test-sets", d / "test_sets.json", "--kind", kind,
                       "--out", d / f"metrics_{kind.replace('-', '_')}.json") == 0
    shared = ["partition.json", "test_sets.json", "network.json", "fed_report.json",
              "metrics_overlapping.json", "metrics_non_overlapping.json"]
    shared += [f"unit_{k}.json" for k in range(5)]
    for name in shared:
        assert (d / name).read_bytes() == (b / name).read_bytes(), name


def test_csv_run_records_the_sha256_of_the_bytes_it_read(tmp_path):
    raw = _canonical_csv(tmp_path)
    first = _csv_run(tmp_path, raw)
    doc = json.loads(first.config_json.read_text())
    assert doc["data"]["dataset_sha256"] == hashlib.sha256(raw).hexdigest()
    first_hash = json.loads(first.manifest_json.read_text())["config_sha256"]
    # the manifest hashes the document config.json holds
    assert first_hash == _config_hash(first.config_json)

    # other bytes at the same path, parsing to the same rows: another config hash
    other = raw + b"# a note\n"
    second = _csv_run(tmp_path, other)
    assert sn.load_dataset(second.dataset_csv) == sn.load_dataset(tmp_path / "formatted.csv")
    second_doc = json.loads(second.config_json.read_text())
    assert second_doc["data"].pop("dataset_sha256") == hashlib.sha256(other).hexdigest()
    del doc["data"]["dataset_sha256"]
    assert second_doc == doc
    assert json.loads(second.manifest_json.read_text())["config_sha256"] != first_hash


def test_synthetic_run_records_no_dataset_sha256(tmp_path):
    bundle = sn.run_pipeline(sn.load_config(sn.default_config_path(), fast_sets(tmp_path / "out", epochs=2)))
    assert "dataset_sha256" not in json.loads(bundle.config_json.read_text())["data"]
    assert json.loads(bundle.manifest_json.read_text())["config_sha256"] == _config_hash(bundle.config_json)


def _bundle_bytes(bundle_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in bundle_dir.iterdir() if p.name != "fed_timings.json"}


def refuse_compute_call(*args, **kwargs):
    raise AssertionError("computed past the data stage")


def test_rerun_of_a_csv_bundle_checks_the_recorded_dataset_sha256(tmp_path, monkeypatch, capsys):
    raw = _canonical_csv(tmp_path)
    first = _csv_run(tmp_path, raw)
    before = _bundle_bytes(first.out_dir)

    # the bundle's own config.json over an unchanged file: the same bundle
    assert run_cli("pipeline", "--config", first.config_json) == 0
    capsys.readouterr()
    assert _bundle_bytes(first.out_dir) == before

    # one comment line appended: refused in the data stage, before partition, and nothing written
    csv_path = tmp_path / "data.csv"
    csv_path.write_bytes(raw + b"# a note\n")
    monkeypatch.setattr("switchnet.pipeline.partition", refuse_compute_call)
    assert run_cli("pipeline", "--config", first.config_json) == 2
    _only_error_line(capsys, f"pipeline error: stage 'data': dataset {csv_path} has sha256 ",
                     hashlib.sha256(raw + b"# a note\n").hexdigest(), hashlib.sha256(raw).hexdigest())
    assert _bundle_bytes(first.out_dir) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "formatted.csv", "out"]


@pytest.mark.parametrize("value", ["A" * 64, "a" * 63, "a" * 65, "g" * 64, 7, None, ["a" * 64]])
def test_dataset_sha256_must_be_64_lowercase_hex_digits(tmp_path, value):
    doc = json.loads(sn.default_config_path().read_text())
    doc["data"] = {"dataset": "data.csv", "holdout_fraction": 0.2, "dataset_sha256": value}
    with pytest.raises(sn.ConfigError, match=r"^data\.dataset_sha256 must be 64 lowercase hex digits"):
        sn.parse_config(doc, base_dir=tmp_path)


def test_dataset_sha256_with_data_groups_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    override = f"data.dataset_sha256={'a' * 64}"
    with pytest.raises(sn.ConfigError, match="this config has data.groups"):
        sn.load_config(sn.default_config_path(), [override])
    assert run_cli("pipeline", "--set", override, "--set", f"output.dir={out}") == 1
    _only_error_line(capsys, "config error: data.dataset_sha256 names the bytes of a data.dataset file")
    assert not out.exists()


def test_no_dataset_sha256_no_hashing(tmp_path, monkeypatch):
    """A CSV config without the key reads the file without checking it; the run
    records the hash of what it read, computed once."""
    raw = _canonical_csv(tmp_path)
    hashed = []
    real_sha256 = hashlib.sha256

    def counting_sha256(data=b""):
        hashed.append(data)
        return real_sha256(data)

    monkeypatch.setattr("switchnet.pipeline.hashlib.sha256", counting_sha256)
    _csv_run(tmp_path, raw)
    assert hashed.count(raw) == 1


def test_given_dataset_sha256_hashes_the_input_once(tmp_path, monkeypatch, capsys):
    """A CSV config with the key hashes the file once, to check it, and records
    that checked hash: the bundle is the one the same run without the key writes."""
    raw = _canonical_csv(tmp_path)
    first = _csv_run(tmp_path, raw)
    before = _bundle_bytes(first.out_dir)
    hashed = []
    real_sha256 = hashlib.sha256

    def counting_sha256(data=b""):
        hashed.append(data)
        return real_sha256(data)

    monkeypatch.setattr("switchnet.pipeline.hashlib.sha256", counting_sha256)
    assert run_cli("pipeline", "--config", first.config_json) == 0
    capsys.readouterr()
    assert hashed.count(raw) == 1
    assert _bundle_bytes(first.out_dir) == before


def test_pipeline_runtime_failure_names_stage(tmp_path):
    doc = json.loads(sn.default_config_path().read_text())
    doc["data"] = {"dataset": str(tmp_path / "missing.csv"), "holdout_fraction": 0.2}
    doc["output"]["dir"] = str(tmp_path / "out")
    config = sn.parse_config(doc)
    with pytest.raises(sn.StageError, match="stage 'data'"):
        sn.run_pipeline(config)
    assert not (tmp_path / "out").exists()


def test_unroutable_dataset_config_fails_in_switch_stage(tmp_path):
    base = sn.load_config(sn.default_config_path())
    csv_path = tmp_path / "data.csv"
    sn.save_dataset(sn.generate_synthetic(base.specs, base.seed), csv_path)
    doc = json.loads(sn.default_config_path().read_text())
    doc["data"] = {"dataset": str(csv_path), "holdout_fraction": 0.2}
    del doc["switch"]["entries"]["4"]
    doc["output"]["dir"] = str(tmp_path / "out")
    with pytest.raises(sn.StageError, match=r"stage 'switch': .*group\(s\) \[4\]"):
        sn.run_pipeline(sn.parse_config(doc))
    assert not (tmp_path / "out").exists()


# the packaged config with unit 4 left out: group 4 routes to unit 3
FOUR_UNITS = ["switch.n_units=4", "partition.counts=[20, 30, 10, 20]",
              'switch.entries={"0": [0], "1": [1], "2": [2], "3": [3], "4": [3]}']


def test_rerun_with_fewer_units_leaves_no_stale_files(tmp_path):
    out = tmp_path / "out"
    sn.run_pipeline(sn.load_config(sn.default_config_path(), fast_sets(out, epochs=2)))
    assert (out / "unit_4.json").exists()
    bundle = sn.run_pipeline(sn.load_config(sn.default_config_path(),
                                            fast_sets(out, epochs=2) + FOUR_UNITS))
    manifest = json.loads(bundle.manifest_json.read_text())
    assert sorted(p.name for p in out.iterdir()) == sorted(manifest["artifacts"] + ["manifest.json"])
    assert not (out / "unit_4.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def foreign_file(out):
    out.mkdir()
    (out / "notes.txt").write_text("keep me")


def foreign_manifest(out):
    out.mkdir()
    (out / "manifest.json").write_text('{"name": "web-app", "version": "1.0.0"}')
    (out / "index.js").write_text("keep me")


def bundle_plus_extra_file(out):
    sn.run_pipeline(sn.load_config(sn.default_config_path(), fast_sets(out, epochs=2)))
    (out / "notes.txt").write_text("keep me")


def refuse_compute(monkeypatch):
    def no_compute(config):
        raise AssertionError("the data stage ran")

    monkeypatch.setattr("switchnet.pipeline.data_stage", no_compute)


@pytest.mark.parametrize("setup", [foreign_file, foreign_manifest, bundle_plus_extra_file],
                         ids=["foreign-file", "foreign-manifest", "bundle-plus-extra-file"])
def test_foreign_output_dir_refused_before_compute(tmp_path, monkeypatch, capsys, setup):
    out = tmp_path / "out"
    setup(out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    refuse_compute(monkeypatch)
    config = sn.load_config(sn.default_config_path(), fast_sets(out))
    with pytest.raises(sn.ConfigError, match="is not a previous bundle"):
        sn.run_pipeline(config)
    assert run_cli("pipeline", "--set", f"output.dir={out}") == 1
    assert "config error" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize("out_dir", [".", ".."])
def test_working_directory_output_refused_before_compute(tmp_path, monkeypatch, out_dir):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    refuse_compute(monkeypatch)
    config = sn.load_config(sn.default_config_path(), fast_sets(out_dir))
    with pytest.raises(sn.ConfigError, match="is the working directory or holds it"):
        sn.run_pipeline(config)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["work"]
    assert not any(work.iterdir())


def test_failed_write_keeps_previous_bundle(tmp_path, monkeypatch):
    out = tmp_path / "out"
    sn.run_pipeline(sn.load_config(sn.default_config_path(), fast_sets(out, epochs=2)))
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def broken_svg(matrix, path):
        raise OSError("disk full")

    monkeypatch.setattr("switchnet.pipeline.render_heatmap_svg", broken_svg)
    config = sn.load_config(sn.default_config_path(), fast_sets(out, epochs=3) + ["seed=7"])
    with pytest.raises(OSError, match="disk full"):
        sn.run_pipeline(config)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_failed_rollback_keeps_previous_bundle_aside(tmp_path, monkeypatch):
    out = tmp_path / "out"
    sn.run_pipeline(sn.load_config(sn.default_config_path(), fast_sets(out, epochs=2)))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    rename = Path.rename

    def rename_only_out_dir(self, target):
        # moving the old bundle aside works; moving anything into output.dir fails
        if self.name in ("bundle", "previous"):
            raise OSError("device busy")
        return rename(self, target)

    monkeypatch.setattr(Path, "rename", rename_only_out_dir)
    with pytest.raises(OSError, match="the previous bundle is kept at") as info:
        sn.run_pipeline(sn.load_config(sn.default_config_path(), fast_sets(out, epochs=3)))
    kept = Path(str(info.value).rsplit("kept at ", 1)[1])
    assert not out.exists()
    assert kept.parent.parent == tmp_path
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == before


# ---------------------------------------------------------------- CLI behavior

def test_cli_pipeline_exit_zero(tmp_path, capsys):
    code = run_cli("pipeline", "--set", f"output.dir={tmp_path/'out'}",
                   "--set", "train.epochs=4", "--set", "network.workers=1")
    assert code == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    assert "bundle written" in capsys.readouterr().out


def test_cli_invalid_config_exits_one_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("pipeline", "--set", "switch.n_units=4",
                   "--set", f"output.dir={out}")
    assert code == 1
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path, capsys):
    code = run_cli("pipeline", "--config", tmp_path / "nope.json")
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_cli_runtime_failure_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    doc = json.loads(sn.default_config_path().read_text())
    doc["data"] = {"dataset": "missing.csv", "holdout_fraction": 0.2}
    doc["output"]["dir"] = str(tmp_path / "out")
    cfg_path.write_text(json.dumps(doc))
    code = run_cli("pipeline", "--config", cfg_path)
    assert code == 2
    assert "stage 'data'" in capsys.readouterr().err


def test_cli_oversized_csv_field_exits_two(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("id,group,label,f0\n0,0,1," + "1" * 200_000 + "\n")
    cfg_path = tmp_path / "cfg.json"
    doc = json.loads(sn.default_config_path().read_text())
    doc["data"] = {"dataset": str(csv_path), "holdout_fraction": 0.2}
    doc["output"]["dir"] = str(tmp_path / "out")
    cfg_path.write_text(json.dumps(doc))
    assert run_cli("pipeline", "--config", cfg_path) == 2
    err = capsys.readouterr().err
    assert "stage 'data'" in err and "field larger than field limit" in err and "line 2" in err


def test_cli_eval_rejects_non_integer_test_set_ids(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("pipeline", *[a for s in fast_sets(out, epochs=2) for a in ("--set", s)]) == 0
    for bad_id in (0.5, "1", True):
        doc = json.loads((out / "test_sets.json").read_text())
        doc["overlapping"][0] = bad_id
        (tmp_path / "t.json").write_text(json.dumps(doc))
        code = run_cli("eval", "--network", out / "network.json", "--dataset", out / "dataset.csv",
                       "--test-sets", tmp_path / "t.json", "--kind", "overlapping",
                       "--out", tmp_path / "m.json")
        assert code == 1
        assert f"overlapping ids must be integers, got {bad_id!r}" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


def test_cli_eval_missing_network_exits_one(tmp_path, capsys):
    code = run_cli("eval", "--network", tmp_path / "net.json", "--dataset", tmp_path / "d.csv",
                   "--test-sets", tmp_path / "t.json", "--kind", "overlapping",
                   "--out", tmp_path / "m.json")
    assert code == 1
    assert "network bundle not found" in capsys.readouterr().err


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"switchnet {sn.__version__}" in capsys.readouterr().out


def parse_outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that ends the program."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, *capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--help"], *([command, "--help"] for command in cli._SUBCOMMANDS), ["pipeline", "--bogus"],
    ["eval", "--kind", "x"], ["train", "--unit"], ["bogus"], [], ["-h", "pipeline"], ["--version"],
    ["pipeline", "--", "x"]])
def test_cli_parses_as_the_parser_of_every_subcommand(monkeypatch, capsys, argv):
    """`main` builds the parser of the subcommand that leads argv alone; help,
    usage and errors are those of the parser with every subcommand."""
    expected = parse_outcome(lambda a: cli.build_parser().parse_args(a), argv, capsys)
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or build(command))
    assert parse_outcome(main, argv, capsys) == expected
    assert built == [argv[0] if argv and argv[0] in cli._SUBCOMMANDS else None]


def test_cli_errors_name_the_command_argument(capsys):
    assert "error: argument command: invalid choice: 'bogus'" in parse_outcome(main, ["bogus"], capsys)[2]
    assert "error: the following arguments are required: command" in parse_outcome(main, [], capsys)[2]


# ---------------------------------------------------------------- stage composability

# the packaged config, the digest-pinned multi-unit linear-readout run, where
# the pipeline and the subcommands also share the readout's calibration pass,
# and the packaged config under the heatmap's max reduction
CHAIN_RUNS = {"default": [],
              "multi-unit-linear-readout": ["switch.entries.2=[1,2,3]", "network.aggregation=linear-readout"],
              "max-statistic": ["network.heatmap_statistic=max"]}


@pytest.mark.parametrize("run", sorted(CHAIN_RUNS))
def test_subcommand_chain_reproduces_pipeline(tmp_path, run):
    pipe_dir = tmp_path / "pipeline"
    sets = fast_sets(pipe_dir, epochs=6, workers=1) + CHAIN_RUNS[run]
    statistic = dict(s.split("=", 1) for s in sets).get("network.heatmap_statistic", "mean")
    set_args = []
    for s in sets:
        set_args += ["--set", s]
    assert run_cli("pipeline", *set_args) == 0

    d = tmp_path / "chain"
    d.mkdir()
    assert run_cli("gen-data", *set_args, "--out", d / "dataset.csv") == 0
    assert run_cli("partition", *set_args, "--dataset", d / "dataset.csv",
                   "--out", d / "partition.json", "--test-sets", d / "test_sets.json") == 0
    assert run_cli("fedsim", *set_args, "--dataset", d / "dataset.csv",
                   "--partition", d / "partition.json", "--out-dir", d) == 0
    assert run_cli("eval", "--network", d / "network.json", "--dataset", d / "dataset.csv",
                   "--test-sets", d / "test_sets.json", "--kind", "overlapping",
                   "--out", d / "metrics_overlapping.json") == 0
    assert run_cli("eval", "--network", d / "network.json", "--dataset", d / "dataset.csv",
                   "--test-sets", d / "test_sets.json", "--kind", "non-overlapping",
                   "--out", d / "metrics_non_overlapping.json",
                   "--out-contribution", d / "contribution.json") == 0
    assert run_cli("heatmap", "--network", d / "network.json", "--dataset", d / "dataset.csv",
                   "--test-sets", d / "test_sets.json", "--kind", "non-overlapping",
                   "--statistic", statistic, "--out-csv", d / "heatmap.csv",
                   "--out-svg", d / "heatmap.svg",
                   "--out-attribution", d / "attribution.json") == 0

    shared = ["dataset.csv", "partition.json", "test_sets.json", "network.json",
              "fed_report.json", "metrics_overlapping.json", "metrics_non_overlapping.json",
              "contribution.json", "heatmap.csv", "heatmap.svg", "attribution.json"]
    shared += [f"unit_{k}.json" for k in range(5)]
    for name in shared:
        assert (d / name).read_bytes() == (pipe_dir / name).read_bytes(), name


def test_train_subcommand_matches_pipeline_unit(tmp_path):
    pipe_dir = tmp_path / "pipeline"
    sets = fast_sets(pipe_dir, epochs=6, workers=1)
    set_args = []
    for s in sets:
        set_args += ["--set", s]
    assert run_cli("pipeline", *set_args) == 0

    d = tmp_path / "manual"
    d.mkdir()
    assert run_cli("gen-data", *set_args, "--out", d / "dataset.csv") == 0
    assert run_cli("partition", *set_args, "--dataset", d / "dataset.csv",
                   "--out", d / "partition.json") == 0
    assert run_cli("train", *set_args, "--dataset", d / "dataset.csv",
                   "--partition", d / "partition.json", "--unit", 2,
                   "--out-unit", d / "unit_2.json", "--out-log", d / "train_log_2.json") == 0
    assert (d / "unit_2.json").read_bytes() == (pipe_dir / "unit_2.json").read_bytes()
    log = json.loads((d / "train_log_2.json").read_text())
    assert log["unit_index"] == 2
    assert len(log["epoch_losses"]) == 6
    # one layout per training log: the pipeline's fed_report entry for node 2, keyed by node_id
    node = json.loads((pipe_dir / "fed_report.json").read_text())["nodes"][2]
    assert log == {"unit_index": 2, **{k: v for k, v in node.items() if k != "node_id"}}
    assert log["epochs"] == 6


def test_gen_data_from_specs_file_matches_config_route(tmp_path):
    config = sn.load_config(sn.default_config_path())
    specs_path = tmp_path / "specs.json"
    specs_path.write_text(json.dumps([s.to_json() for s in config.specs]))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("gen-data", "--out", a) == 0  # packaged default config
    assert run_cli("gen-data", "--specs", specs_path, "--seed", 42, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("option", ["--config", "--set", "--seed"])
def test_gen_data_refuses_config_or_set_beside_specs(tmp_path, capsys, option):
    # --specs and --seed say the whole dataset: a config file or an override beside
    # them would be ignored, so either is a config error and nothing is written.
    # Without --specs the config says the seed, so a --seed (ignored before) is one too.
    config = sn.load_config(sn.default_config_path())
    specs_path, out = tmp_path / "specs.json", tmp_path / "a.csv"
    specs_path.write_text(json.dumps([s.to_json() for s in config.specs]))
    if option == "--seed":
        args, message = ("--seed", 5), "gen-data without --specs takes no --seed; use --set seed=N"
    else:
        value = sn.default_config_path() if option == "--config" else "seed=7"
        args = ("--specs", specs_path, "--seed", 42, option, value)
        message = "gen-data with --specs takes no --config or --set"
    assert run_cli("gen-data", *args, "--out", out) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ['[{"name": "a", "mean": [0', '{"name": "a"}', "[1]"],
                         ids=["truncated", "object", "list of numbers"])
def test_gen_data_bad_specs_file_gives_one_error_line(tmp_path, capsys, text):
    specs_path = tmp_path / "specs.json"
    specs_path.write_text(text)
    assert run_cli("gen-data", "--specs", specs_path, "--seed", 1, "--out", tmp_path / "a.csv") == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: group specs file {specs_path}"), err
    assert not (tmp_path / "a.csv").exists()


# (group index and key, value, message): a misspelt or missing key in a group spec or
# label rule is named, never dropped or left at its default; a constant kind's object
# form needs no weights, so the missing-weights case is a linear-threshold rule's
# ("missing keys in label rule: ['weights']" before, for every kind), and weights or a
# bias on a constant kind, which it would not use, are refused (dropped before)
GROUP_KEY_FAULTS = [
    ((1, "colour"), "red", "unknown keys in group spec: ['colour']"),
    ((0, "label_rule"), {"kind": "linear-threshold", "weights": [1.0, 0.0], "bais": 5},
     "unknown keys in label rule: ['bais']"),
    ((0, "label_rule"), {"kind": "linear-threshold"}, "linear-threshold rule needs weights"),
    ((0, "label_rule"), {"kind": "all-one", "weights": [1.0, 0.0], "bias": 7},
     "label rule 'all-one' takes no weights or bias"),
    ((2, "label_rule"), {"kind": "all-zero", "bias": 0}, "label rule 'all-zero' takes no weights or bias"),
]


@pytest.mark.parametrize("route", ["config-file", "set", "specs-file"])
@pytest.mark.parametrize("where, value, message", GROUP_KEY_FAULTS,
                         ids=["group-key", "rule-key", "rule-without-weights", "constant-rule-weights",
                              "constant-rule-bias"])
def test_group_spec_key_faults_are_refused_by_name(tmp_path, capsys, route, where, value, message):
    (group, key), out = where, tmp_path / "out"
    doc = json.loads(sn.default_config_path().read_text(encoding="utf-8"))
    doc["output"]["dir"] = str(out)
    if route == "set":
        code = run_cli("pipeline", "--set", f"data.groups.{group}.{key}={json.dumps(value)}",
                       "--set", f"output.dir={out}")
        want = f"config error: bad data.groups: {message}\n"
    else:
        doc["data"]["groups"][group][key] = value
        path = tmp_path / "input.json"
        if route == "config-file":
            path.write_text(json.dumps(doc))
            code = run_cli("pipeline", "--config", path)
            want = f"config error: bad data.groups: {message}\n"
        else:
            path.write_text(json.dumps(doc["data"]["groups"]))
            code = run_cli("gen-data", "--specs", path, "--seed", 1, "--out", out)
            want = f"error: group specs file {path}: {message}\n"
    assert (code, capsys.readouterr().err) == (1 if route != "specs-file" else 2, want)
    assert not out.exists()


BIG = 10**400  # past float range: float(BIG) raises OverflowError
FIRST_GROUP = "group 'Young – Low Income'"

# (override, message): a group spec number past float range, as an integer or as a float
# that parses to infinity, is refused by name, never a traceback or an infinite parameter
OUT_OF_RANGE = [
    (f"data.groups.0.mean=[{BIG},0]",
     f"{FIRST_GROUP}: mean and scale entries must be JSON numbers within float range, got {BIG}"),
    (f"data.groups.0.scale=[0.35,{BIG}]",
     f"{FIRST_GROUP}: mean and scale entries must be JSON numbers within float range, got {BIG}"),
    ('data.groups.0.label_rule={"kind":"linear-threshold","weights":[%d,0]}' % BIG,
     f"label rule weights must be JSON numbers within float range, got {BIG}"),
    ('data.groups.0.label_rule={"kind":"linear-threshold","weights":[1e400,0]}',
     "label rule weights must be JSON numbers within float range, got inf"),
    ('data.groups.0.label_rule={"kind":"linear-threshold","weights":[1,0],"bias":-1e400}',
     "label rule bias must be JSON numbers within float range, got -inf")]


@pytest.mark.parametrize("override, message", OUT_OF_RANGE,
                         ids=["mean-int", "scale-int", "rule-weight-int", "rule-weight-1e400", "rule-bias-1e400"])
def test_group_spec_number_past_float_range_is_config_error(tmp_path, capsys, override, message):
    out = tmp_path / "out"
    assert run_cli("pipeline", "--set", override, "--set", f"output.dir={out}") == 1
    assert capsys.readouterr().err == f"config error: bad data.groups: {message}\n"
    assert not out.exists()


# (override, message): a count past 64 bits, which would reach numpy, or a learning rate
# past float range, which would reach the trainer, is refused by name before any stage runs
BEYOND_RANGE = [
    (f"partition.counts=[{BIG},1,1,1,1]",
     f"bad partition plan: planned counts must be positive integers below 2**63, got [{BIG}, 1, 1, 1, 1]"),
    (f"data.groups.0.count={2**64}",
     f"bad data.groups: {FIRST_GROUP}: count must be a positive integer below 2**63, got {2**64}"),
    (f"train.learning_rate={BIG}", f"bad train section: learning_rate must be a finite number > 0, got {BIG}")]


@pytest.mark.parametrize("override, message", BEYOND_RANGE, ids=["partition-count", "group-count", "learning-rate"])
def test_count_or_rate_beyond_range_is_config_error(tmp_path, capsys, override, message):
    out = tmp_path / "out"
    assert run_cli("pipeline", "--set", override, "--set", f"output.dir={out}") == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_constant_label_rule_object_form_writes_the_named_form_bundle(tmp_path, capsys):
    out = tmp_path / "out"
    bundles = []
    for rule in ('"all-one"', '{"kind": "all-one"}'):
        assert run_cli("pipeline", "--set", f"data.groups.0.label_rule={rule}",
                       *[a for s in fast_sets(out, epochs=2) for a in ("--set", s)]) == 0
        bundles.append(_bundle_bytes(out))
    assert bundles[0] == bundles[1]


def test_partition_test_set_failure_writes_neither_file(tmp_path, capsys):
    # contiguous counts that assign all 125 observations leave no non-overlapping test id
    d = tmp_path
    assert run_cli("gen-data", "--out", d / "dataset.csv") == 0
    code = run_cli("partition", "--set", "partition.selection=contiguous",
                   "--set", "partition.counts=[25, 35, 15, 25, 25]", "--dataset", d / "dataset.csv",
                   "--out", d / "p.json", "--test-sets", d / "t.json")
    assert code == 2
    assert "no unassigned observations" in capsys.readouterr().err
    assert not (d / "p.json").exists() and not (d / "t.json").exists()


def test_train_subcommand_unknown_unit(tmp_path, capsys):
    d = tmp_path
    assert run_cli("gen-data", "--out", d / "dataset.csv") == 0
    assert run_cli("partition", "--dataset", d / "dataset.csv", "--out", d / "partition.json") == 0
    code = run_cli("train", "--dataset", d / "dataset.csv", "--partition", d / "partition.json",
                   "--unit", 9, "--out-unit", d / "unit_9.json")
    assert code == 1
    assert "no unit 9" in capsys.readouterr().err


def test_switch_warnings_reach_stderr(tmp_path, capsys, children_always):
    dead_unit = ["--set", "switch.entries.4=[3]", "--set", "train.epochs=2"]
    warning = "warning: unit 4 appears in no switch entry (dead unit)"
    out = tmp_path / "pipeline"
    assert run_cli("pipeline", *dead_unit, "--set", f"output.dir={out}",
                   "--set", "network.workers=1") == 0
    assert warning in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["switch_warnings"] == ["unit 4 appears in no switch entry (dead unit)"]

    d = tmp_path / "chain"
    d.mkdir()
    assert run_cli("gen-data", "--out", d / "dataset.csv") == 0
    assert run_cli("partition", "--dataset", d / "dataset.csv", "--out", d / "partition.json") == 0
    capsys.readouterr()
    assert run_cli("fedsim", *dead_unit, "--set", "network.workers=2", "--dataset", d / "dataset.csv",
                   "--partition", d / "partition.json", "--out-dir", d) == 0
    captured = capsys.readouterr()
    assert warning in captured.err
    assert "with 2 worker(s)" in captured.out
    assert json.loads((d / "fed_timings.json").read_text())["workers"] == 2


# ---------------------------------------------------------------- malformed input files

@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle") / "out"
    assert run_cli("pipeline", *[a for s in fast_sets(out, epochs=2) for a in ("--set", s)]) == 0
    return out


def _only_error_line(capsys, prefix, *names):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(prefix), err
    assert all(name in err for name in names), err


PARTITION_FAULTS = [
    ("short subset", lambda doc: doc["subsets"].update({"0": doc["subsets"]["0"][:3]})),
    ("long subset", lambda doc: doc["subsets"]["0"].append(  # an unassigned id of the 125
        min(set(range(125)).difference(*doc["subsets"].values())))),
    ("missing unit key", lambda doc: doc["subsets"].pop("1")),
    ("extra key", lambda doc: doc["subsets"].update({"7": doc["subsets"].pop("1")})),
    ("units out of order", lambda doc: doc["plan"].reverse()),
    ("float unit", lambda doc: doc["plan"][0].__setitem__(0, 0.0))]


@pytest.mark.parametrize("command", ["fedsim", "train"])
@pytest.mark.parametrize("fault", PARTITION_FAULTS, ids=[name for name, _ in PARTITION_FAULTS])
def test_partition_file_off_its_plan_exits_two(tmp_path, capsys, small_bundle, command, fault):
    doc = json.loads((small_bundle / "partition.json").read_text())
    fault[1](doc)
    (tmp_path / "partition.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    common = ["--dataset", small_bundle / "dataset.csv", "--partition", tmp_path / "partition.json"]
    if command == "fedsim":
        argv = ["fedsim", *common, "--out-dir", out]
    else:
        argv = ["train", *common, "--unit", 0, "--out-unit", out / "unit_0.json"]
    assert run_cli(*argv) == 2
    _only_error_line(capsys, f"error: partition JSON {tmp_path / 'partition.json'}: ")
    assert not out.exists()


def _truncate(path):
    path.write_text(path.read_text()[:40])


def _top_level_list(path):
    path.write_text("[]")


def _rekey_group_1(key):
    def change(doc):
        entries = doc["switch"]["entries"]
        entries[key] = entries.pop("1")
    return _edit(change)


def _edit(change):
    def edit(path):
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
    return edit


def _eval(d, bundle):
    return ["eval", "--network", d / "network.json", "--dataset", bundle / "dataset.csv",
            "--test-sets", d / "test_sets.json", "--kind", "overlapping", "--out", d / "out.json"]


def _heatmap(d, bundle):
    return ["heatmap", "--network", d / "network.json", "--dataset", bundle / "dataset.csv",
            "--test-sets", d / "test_sets.json", "--out-csv", d / "out.csv",
            "--out-svg", d / "out.svg"]


def _fedsim(d, bundle):
    return ["fedsim", "--dataset", bundle / "dataset.csv", "--partition", d / "partition.json",
            "--out-dir", d / "out"]


def _train(d, bundle):
    return ["train", "--dataset", bundle / "dataset.csv", "--partition", d / "partition.json",
            "--unit", 0, "--out-unit", d / "out.json"]


# a test_sets.json without its id list (missing, or not a list) stays a config error (exit 1)
MALFORMED = [
    ("network.json", "truncated", _truncate, _eval, 2, "error: network bundle"),
    ("network.json", "missing key", _edit(lambda doc: doc["aggregation"].pop("kind")), _heatmap, 2,
     "error: network bundle"),
    ("network.json", "misspelled kind",
     _edit(lambda doc: doc["aggregation"].update(kind="linear_readout")), _eval, 2,
     "error: network bundle"),
    ("network.json", "top-level list", _top_level_list, _eval, 2, "error: network bundle"),
    *[("network.json", f"switch key {key!r}", _rekey_group_1(key), _eval, 2, "error: network bundle")
      for key in (" 1 ", "01", "1.0", "a")],
    ("partition.json", "truncated", _truncate, _fedsim, 2, "error: partition JSON"),
    ("partition.json", "top-level list", _top_level_list, _fedsim, 2, "error: partition JSON"),
    ("partition.json", "missing key", _edit(lambda doc: doc.pop("plan")), _fedsim, 2,
     "error: partition JSON"),
    *[("partition.json", f"plan entry of one ({command.__name__[1:]})",
       _edit(lambda doc: doc["plan"].__setitem__(0, [0])), command, 2, "error: partition JSON")
      for command in (_fedsim, _train)],
    ("test_sets.json", "truncated", _truncate, _heatmap, 2, "error: test-sets file"),
    ("test_sets.json", "missing key", _edit(lambda doc: doc.pop("overlapping")), _eval, 1,
     "config error: test-sets file"),
    ("test_sets.json", "id list a number", _edit(lambda doc: doc.update(overlapping=5)), _eval, 1,
     "config error: test-sets file"),
    ("test_sets.json", "top-level number", lambda path: path.write_text("5"), _eval, 1,
     "config error: test-sets file")]


@pytest.mark.parametrize("name, fault, corrupt, argv, code, prefix", MALFORMED,
                         ids=[f"{name}-{fault}" for name, fault, *_ in MALFORMED])
def test_malformed_json_input_gives_one_error_line(tmp_path, capsys, small_bundle, name, fault,
                                                   corrupt, argv, code, prefix):
    for each in ("network.json", "partition.json", "test_sets.json"):
        (tmp_path / each).write_bytes((small_bundle / each).read_bytes())
    corrupt(tmp_path / name)
    assert run_cli(*argv(tmp_path, small_bundle)) == code
    _only_error_line(capsys, prefix, str(tmp_path / name))
    assert not any((tmp_path / out).exists() for out in ("out.json", "out.csv", "out.svg", "out"))


def test_network_with_a_nan_weight_is_not_valid_json(tmp_path, capsys, small_bundle):
    doc = json.loads((small_bundle / "network.json").read_text())
    doc["units"][0]["weights"][0] = math.nan
    (tmp_path / "network.json").write_text(json.dumps(doc))  # writes the weight as `NaN`
    assert run_cli("eval", "--network", tmp_path / "network.json",
                   "--dataset", small_bundle / "dataset.csv",
                   "--test-sets", small_bundle / "test_sets.json", "--kind", "overlapping",
                   "--out", tmp_path / "out.json") == 2
    assert capsys.readouterr().err == (f"error: network bundle {tmp_path / 'network.json'} is not "
                                       "valid JSON: NaN is not a JSON number\n")
    with pytest.raises(sn.DataError, match="NaN is not a JSON number"):
        sn.load_network(tmp_path / "network.json")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("text, shown", [(str(BIG), str(BIG)), ("1e400", "inf"), ("-1e400", "-inf")],
                         ids=["int", "1e400", "-1e400"])
def test_network_weight_past_float_range_gives_one_error_line(tmp_path, capsys, small_bundle, text, shown):
    doc = json.loads((small_bundle / "network.json").read_text())
    doc["units"][0]["weights"][0] = "WEIGHT"
    path = tmp_path / "network.json"
    path.write_text(json.dumps(doc).replace('"WEIGHT"', text))
    assert run_cli("eval", "--network", path, "--dataset", small_bundle / "dataset.csv",
                   "--test-sets", small_bundle / "test_sets.json", "--kind", "overlapping",
                   "--out", tmp_path / "out.json") == 2
    assert capsys.readouterr().err == (f"error: network bundle {path}: unit 0: weights and bias must be "
                                       f"JSON numbers within float range, got {shown}\n")
    assert not (tmp_path / "out.json").exists()


def test_non_finite_heatmap_gives_one_error_line(tmp_path, capsys, small_bundle):
    doc = json.loads((small_bundle / "network.json").read_text())
    doc["units"][0].update(activation="relu", weights=[1e308, 1e308])  # z overflows to inf
    (tmp_path / "network.json").write_text(json.dumps(doc))
    assert run_cli("heatmap", "--network", tmp_path / "network.json",
                   "--dataset", small_bundle / "dataset.csv", "--test-sets", small_bundle / "test_sets.json",
                   "--out-csv", tmp_path / "out.csv", "--out-svg", tmp_path / "out.svg") == 2
    _only_error_line(capsys, "error: heatmap value inf at 'unit 0', ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["network.json"]


def test_non_finite_heatmap_fails_the_analysis_stage(tmp_path, monkeypatch):
    monkeypatch.setattr("switchnet.network._unit_table",
                        lambda units, features: np.full((len(units), len(features)), math.nan))
    config = sn.load_config(sn.default_config_path(), fast_sets(tmp_path / "out", epochs=2))
    with pytest.raises(sn.StageError, match="^stage 'analysis': heatmap value nan at 'unit 0', "):
        sn.run_pipeline(config)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("run", sorted(CHAIN_RUNS))
def test_pipeline_computes_each_unit_row_activation_once(tmp_path, monkeypatch, run):
    # every unit on every unseen row (the probes, whose active rows are the gated
    # columns), and the active units alone on the overlapping rows and the readout's
    # calibration rows: no (unit, row) activation is computed twice
    cells = []
    unit_table = sn.network._unit_table

    def counted(units, features):
        cells.append(len(units) * len(features))
        return unit_table(units, features)

    monkeypatch.setattr(sn.network, "_unit_table", counted)
    out = tmp_path / "out"
    sn.run_pipeline(sn.load_config(sn.default_config_path(), fast_sets(out, epochs=2) + CHAIN_RUNS[run]))
    net = sn.load_network(out / "network.json")
    dataset = sn.load_dataset(out / "dataset.csv")
    test_sets = json.loads((out / "test_sets.json").read_text())

    def active_cells(ids):
        return sum(len(sn.route(net.switch, dataset.observation(i).group)) for i in ids)

    calibration = []
    if "network.aggregation=linear-readout" in CHAIN_RUNS[run]:
        calibration = sn.PartitionSet.from_json(json.loads((out / "partition.json").read_text())).assigned_ids()
    assert sum(cells) == (net.n_units * len(test_sets["non_overlapping"])
                          + active_cells(test_sets["overlapping"]) + active_cells(calibration))


def _make_directory(path):
    path.mkdir()


def _not_utf8(path):
    path.write_bytes(b'{"caf\xe9": 1}\n')


# An input path that is a directory, or a file that is not UTF-8: one error line
# naming the path, the same for every input. A bad config is a config error (exit 1), any other input a
# data error (exit 2).
UNREADABLE = [
    ("config", _make_directory, lambda d, b: ["pipeline", "--config", d / "input"], 1,
     "config error: config file", "cannot be read: Is a directory"),
    ("config", _not_utf8, lambda d, b: ["pipeline", "--config", d / "input"], 1,
     "config error: config file", "is not UTF-8 text"),
    ("dataset", _make_directory, lambda d, b: ["partition", "--dataset", d / "input",
                                               "--out", d / "out.json"], 2,
     "error: dataset file", "cannot be read: Is a directory"),
    ("dataset", _not_utf8, lambda d, b: ["partition", "--dataset", d / "input",
                                         "--out", d / "out.json"], 2,
     "error: dataset file", "is not UTF-8 text"),
    *[case for make, reason in ((_make_directory, "cannot be read: Is a directory"),
                                (_not_utf8, "is not UTF-8 text"))
      for case in [
          ("network", make, lambda d, b: ["eval", "--network", d / "input",
                                          "--dataset", b / "dataset.csv",
                                          "--test-sets", b / "test_sets.json",
                                          "--kind", "overlapping", "--out", d / "out.json"], 2,
           "error: network bundle", reason),
          ("partition", make, lambda d, b: ["fedsim", "--dataset", b / "dataset.csv",
                                            "--partition", d / "input", "--out-dir", d / "out"], 2,
           "error: partition JSON", reason),
          ("test sets", make, lambda d, b: ["eval", "--network", b / "network.json",
                                            "--dataset", b / "dataset.csv",
                                            "--test-sets", d / "input",
                                            "--kind", "overlapping", "--out", d / "out.json"], 2,
           "error: test-sets file", reason),
          ("specs", make, lambda d, b: ["gen-data", "--specs", d / "input", "--seed", 1,
                                        "--out", d / "out.csv"], 2,
           "error: group specs file", reason)]],
]


@pytest.mark.parametrize("what, make, argv, code, prefix, reason", UNREADABLE,
                         ids=[f"{what}-{make.__name__.strip('_')}" for what, make, *_ in UNREADABLE])
def test_unreadable_input_gives_one_error_line(tmp_path, capsys, small_bundle, what, make, argv,
                                               code, prefix, reason):
    make(tmp_path / "input")
    assert run_cli(*argv(tmp_path, small_bundle)) == code
    _only_error_line(capsys, prefix, str(tmp_path / "input"), reason)
    assert not any((tmp_path / out).exists() for out in ("out.json", "out.csv", "out"))


# ---------------------------------------------------------------- unwritable outputs

def _with_outputs(d, b):
    """Each subcommand's argv with every output flag set to a path in `d`."""
    network, test_sets = b / "network.json", b / "test_sets.json"
    inputs = ["--dataset", b / "dataset.csv"]
    return {
        "gen-data": ["gen-data", "--out", d / "data.csv"],
        "partition": ["partition", *inputs, "--out", d / "partition.json", "--test-sets", d / "sets.json"],
        "train": ["train", *inputs, "--partition", b / "partition.json", "--unit", 0,
                  "--out-unit", d / "unit.json", "--out-log", d / "log.json"],
        "fedsim": ["fedsim", *inputs, "--partition", b / "partition.json", "--out-dir", d / "fed"],
        "eval": ["eval", "--network", network, *inputs, "--test-sets", test_sets,
                 "--kind", "overlapping", "--out", d / "metrics.json",
                 "--out-contribution", d / "contribution.json"],
        "heatmap": ["heatmap", "--network", network, *inputs, "--test-sets", test_sets,
                    "--out-csv", d / "heatmap.csv", "--out-svg", d / "heatmap.svg",
                    "--out-attribution", d / "attribution.json"],
    }


OUTPUT_FLAGS = [("gen-data", "--out"), ("partition", "--out"), ("partition", "--test-sets"),
                ("train", "--out-unit"), ("train", "--out-log"), ("fedsim", "--out-dir"),
                ("eval", "--out"), ("eval", "--out-contribution"), ("heatmap", "--out-csv"),
                ("heatmap", "--out-svg"), ("heatmap", "--out-attribution")]


def _existing_other_kind(path, flag):
    """A directory where a file goes; a file where a directory goes."""
    if flag == "--out-dir":
        path.write_text("")
    else:
        path.mkdir()
    return path


def _under_a_file(path, flag):
    path.write_text("")
    return path / "x"


def _in_a_missing_directory(path, flag):
    return path / "missing" / "x"


# fedsim creates a missing output directory, so that one is writable
UNWRITABLE = [(command, flag, make) for command, flag in OUTPUT_FLAGS
              for make in (_existing_other_kind, _under_a_file, _in_a_missing_directory)
              if not (flag == "--out-dir" and make is _in_a_missing_directory)]


@pytest.mark.parametrize("command, flag, make", UNWRITABLE,
                         ids=[f"{c}{f}-{m.__name__.strip('_')}" for c, f, m in UNWRITABLE])
def test_unwritable_output_gives_one_error_line(tmp_path, capsys, small_bundle, command, flag, make):
    argv = _with_outputs(tmp_path, small_bundle)[command]
    argv[argv.index(flag) + 1] = make(tmp_path / "target", flag)
    assert run_cli(*argv) == 2
    _only_error_line(capsys, "error: cannot write ", str(tmp_path / "target"))


def test_pipeline_output_dir_under_a_file_gives_one_error_line(tmp_path, monkeypatch, capsys):
    (tmp_path / "target").write_text("")
    refuse_compute(monkeypatch)
    sets = fast_sets(tmp_path / "target" / "out" / "deeper", epochs=2)
    assert run_cli("pipeline", *[a for s in sets for a in ("--set", s)]) == 1
    _only_error_line(capsys, "config error: output.dir ", f"under {tmp_path / 'target'}, which exists")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]


@pytest.mark.parametrize("under", ["x", "x/deeper"])
def test_fedsim_out_dir_under_a_file_refused_before_training(tmp_path, monkeypatch, capsys,
                                                            small_bundle, under):
    (tmp_path / "target").write_text("")

    def no_training(*args):
        raise AssertionError("train_stage ran")

    monkeypatch.setattr("switchnet.cli.train_stage", no_training)
    argv = _with_outputs(tmp_path, small_bundle)["fedsim"]
    argv[argv.index("--out-dir") + 1] = tmp_path / "target" / under
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {tmp_path / 'target' / under}: "
                            f"{tmp_path / 'target'} is not a directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]
    assert (tmp_path / "target").read_text() == ""


def test_pipeline_output_dir_that_is_a_file_gives_one_error_line(tmp_path, monkeypatch, capsys):
    (tmp_path / "target").write_text("")
    refuse_compute(monkeypatch)
    sets = fast_sets(tmp_path / "target", epochs=2)
    assert run_cli("pipeline", *[a for s in sets for a in ("--set", s)]) == 1
    _only_error_line(capsys, "config error: output.dir ", f"{tmp_path / 'target'} exists and is not a directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]
    assert (tmp_path / "target").read_text() == ""


def test_fedsim_out_dir_that_is_a_file_refused_before_training(tmp_path, monkeypatch, capsys, small_bundle):
    (tmp_path / "target").write_text("")

    def no_training(*args):
        raise AssertionError("train_stage ran")

    monkeypatch.setattr("switchnet.cli.train_stage", no_training)
    argv = _with_outputs(tmp_path, small_bundle)["fedsim"]
    argv[argv.index("--out-dir") + 1] = tmp_path / "target"
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {tmp_path / 'target'}: Not a directory\n"
    assert (tmp_path / "target").read_text() == ""


def test_fedsim_refuses_a_stale_unit_file_before_training(tmp_path, monkeypatch, capsys, small_bundle):
    four = tmp_path / "four"
    sets = fast_sets(four, epochs=2) + FOUR_UNITS
    assert run_cli("pipeline", *[a for s in sets for a in ("--set", s)]) == 0
    out = tmp_path / "fed"
    assert run_cli("fedsim", "--set", "train.epochs=2", "--dataset", small_bundle / "dataset.csv",
                   "--partition", small_bundle / "partition.json", "--out-dir", out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "unit_4.json" in before

    def no_training(*args):
        raise AssertionError("train_stage ran")

    monkeypatch.setattr("switchnet.cli.train_stage", no_training)
    capsys.readouterr()
    assert run_cli("fedsim", *[a for s in FOUR_UNITS for a in ("--set", s)],
                   "--dataset", four / "dataset.csv", "--partition", four / "partition.json",
                   "--out-dir", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {out / 'unit_4.json'} is a stale unit file: the partition has "
                            "4 units; remove it or choose another --out-dir\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_fedsim_refuses_a_pipeline_bundle_before_training(tmp_path, monkeypatch, capsys):
    # a fedsim run into a pipeline's bundle would leave its config.json and
    # manifest naming a network that is gone
    out = tmp_path / "bundle"
    sets = fast_sets(out, epochs=2)
    assert run_cli("pipeline", *[a for s in sets for a in ("--set", s)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def no_training(*args):
        raise AssertionError("train_stage ran")

    monkeypatch.setattr("switchnet.cli.train_stage", no_training)
    capsys.readouterr()
    assert run_cli("fedsim", "--set", "train.epochs=3", "--dataset", out / "dataset.csv",
                   "--partition", out / "partition.json", "--out-dir", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {out / 'manifest.json'} marks a pipeline bundle: fedsim would leave its "
                            "config and manifest naming another run; choose another --out-dir\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("command, flag", [("heatmap", "--out-attribution"), ("heatmap", "--out-svg"),
                                           ("partition", "--test-sets"), ("train", "--out-log"),
                                           ("eval", "--out-contribution")])
def test_bad_later_output_writes_nothing(tmp_path, capsys, small_bundle, command, flag):
    """A subcommand checks every output path before it writes one: a bad last
    output leaves the earlier ones unwritten and prints no success line."""
    argv = _with_outputs(tmp_path, small_bundle)[command]
    argv[argv.index(flag) + 1] = _existing_other_kind(tmp_path / "target", flag)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {tmp_path / 'target'}: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]
    assert not any((tmp_path / "target").iterdir())


# ---------------------------------------------------------------- outputs that name one file

# the second output of each two-output subcommand set to the first one's file,
# spelled relative to the working directory
SAME_OUTPUTS = [("partition", "--test-sets", "--out"), ("train", "--out-log", "--out-unit"),
                ("eval", "--out-contribution", "--out"), ("heatmap", "--out-svg", "--out-csv")]


@pytest.mark.parametrize("command, flag, first", SAME_OUTPUTS)
def test_two_outputs_naming_one_file_are_refused(tmp_path, monkeypatch, capsys, small_bundle,
                                                 command, flag, first):
    argv = _with_outputs(tmp_path, small_bundle)[command]
    monkeypatch.chdir(tmp_path)
    argv[argv.index(flag) + 1] = argv[argv.index(first) + 1].name
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {argv[argv.index(flag) + 1]}: "
                            "it is also another output of this command\n")
    assert list(tmp_path.iterdir()) == []


def _specs_bytes(b):
    return json.dumps(json.loads(sn.default_config_path().read_text())["data"]["groups"]).encode()


# (command, input flag, output flag, the input's bytes): the output set to a copy
# of the input, one case per input kind
SAME_AS_INPUT = [
    ("gen-data", "--config", "--out", lambda b: sn.default_config_path().read_bytes()),
    ("gen-data", "--specs", "--out", _specs_bytes),
    ("partition", "--dataset", "--out", lambda b: (b / "dataset.csv").read_bytes()),
    ("train", "--partition", "--out-log", lambda b: (b / "partition.json").read_bytes()),
    ("eval", "--network", "--out-contribution", lambda b: (b / "network.json").read_bytes()),
    ("heatmap", "--test-sets", "--out-attribution", lambda b: (b / "test_sets.json").read_bytes()),
]


def _hard_link(source):
    (source.parent / "link").hardlink_to(source)
    return source.parent / "link"


def _symbolic_link(source):
    (source.parent / "link").symlink_to(source)
    return source.parent / "link"


@pytest.mark.parametrize("spell", [lambda source: source, _hard_link, _symbolic_link],
                         ids=["same-path", "hard-link", "symbolic-link"])
@pytest.mark.parametrize("command, flag, out_flag, content", SAME_AS_INPUT,
                         ids=[f"{c}{f}" for c, f, *_ in SAME_AS_INPUT])
def test_output_naming_an_input_is_refused(tmp_path, capsys, small_bundle, command, flag, out_flag, content,
                                           spell):
    argv = _with_outputs(tmp_path, small_bundle)[command]
    source = tmp_path / "input"
    before = content(small_bundle)
    source.write_bytes(before)
    target = spell(source)
    if flag not in argv:
        argv += [flag, None] + (["--seed", 1] if flag == "--specs" else [])
    argv[argv.index(flag) + 1] = source
    argv[argv.index(out_flag) + 1] = target
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: it is also an input of this command\n"
    assert sorted(tmp_path.iterdir()) == sorted({source, target})
    assert source.read_bytes() == before


# ---------------------------------------------------------------- byte-order marks

BOM = b"\xef\xbb\xbf"


def _bom_copy(src, dest):
    dest.write_bytes(BOM + src.read_bytes())
    return dest


def test_config_with_byte_order_mark_loads_as_without(tmp_path):
    plain = tmp_path / "plain.json"
    plain.write_bytes(sn.default_config_path().read_bytes())
    assert sn.load_config(_bom_copy(plain, tmp_path / "bom.json")) == sn.load_config(plain)


def test_json_inputs_with_byte_order_mark_give_the_same_outputs(tmp_path, small_bundle):
    b = small_bundle
    bom = tmp_path / "bom"
    bom.mkdir()
    for name in ("network.json", "partition.json", "test_sets.json"):
        _bom_copy(b / name, bom / name)
    for d in (b, bom):
        assert run_cli("eval", "--network", d / "network.json", "--dataset", b / "dataset.csv",
                       "--test-sets", d / "test_sets.json", "--kind", "overlapping",
                       "--out", tmp_path / f"{d.name}_metrics.json") == 0
        assert run_cli("train", "--dataset", b / "dataset.csv", "--partition", d / "partition.json",
                       "--unit", 1, "--set", "train.epochs=2",
                       "--out-unit", tmp_path / f"{d.name}_unit.json") == 0
    assert sn.load_network(bom / "network.json") == sn.load_network(b / "network.json")
    for kind in ("metrics", "unit"):
        assert (tmp_path / f"bom_{kind}.json").read_bytes() == \
            (tmp_path / f"{b.name}_{kind}.json").read_bytes()


@pytest.mark.parametrize("prefix", [b" " + BOM, BOM + BOM], ids=["space-then-bom", "two-boms"])
def test_byte_order_mark_after_the_first_character_fails(tmp_path, capsys, small_bundle, prefix):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(prefix + sn.default_config_path().read_bytes())
    assert run_cli("pipeline", "--config", cfg) == 1
    _only_error_line(capsys, f"config error: config file {cfg} is not valid JSON: ")
    network = tmp_path / "network.json"
    network.write_bytes(prefix + (small_bundle / "network.json").read_bytes())
    assert run_cli("eval", "--network", network, "--dataset", small_bundle / "dataset.csv",
                   "--test-sets", small_bundle / "test_sets.json", "--kind", "overlapping",
                   "--out", tmp_path / "metrics.json") == 2
    _only_error_line(capsys, f"error: network bundle {network} is not valid JSON: ")
    assert not (tmp_path / "metrics.json").exists()
