"""`import switchnet` loads only what every run uses: no XML, HTTP, e-mail or
SSL modules, and no process modules until a run starts a child; a run that
trains on children loads no `concurrent.futures`."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
NOT_LOADED = ("xml", "urllib", "http", "email", "ssl", "socket", "concurrent.futures",
              "multiprocessing")
# What the import adds to the modules `import numpy` loads, so a numpy release
# that loads one of the packages above itself does not fail the test.
PROBE = ("import json, sys, numpy; before = set(sys.modules); import switchnet, switchnet.cli; "
         "print(json.dumps(sorted(set(sys.modules) - before)))")


def test_import_loads_no_network_xml_or_pool_modules():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
                         check=True).stdout
    added = json.loads(out)
    assert "switchnet.federated" in added
    loaded = [m for m in added if any(m == p or m.startswith(p + ".") for p in NOT_LOADED)]
    assert loaded == []


# The packaged config's pipeline with the child threshold at 0, so 2 workers
# are 2 processes: this one and one child.
TWO_WORKER_RUN = ("import json, sys, switchnet, switchnet.pipeline; "
                  "switchnet.pipeline.POOL_MIN_STEPS = 0; "
                  "config = switchnet.load_config(switchnet.default_config_path(), "
                  "['train.epochs=3', 'network.workers=2', 'output.dir=' + sys.argv[1]]); "
                  "bundle = switchnet.run_pipeline(config); "
                  "print(json.dumps([json.loads(bundle.fed_timings_json.read_text())['workers'], sorted(sys.modules)]))")


def test_two_worker_run_loads_no_concurrent_futures(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", TWO_WORKER_RUN, str(tmp_path / "out")], env=env,
                         capture_output=True, text=True, check=True).stdout
    workers, loaded = json.loads(out)
    assert workers == 2
    assert "multiprocessing" in loaded
    assert [m for m in loaded if m == "concurrent.futures" or m.startswith("concurrent.futures.")] == []


# The packaged config's pipeline on 2 workers, below the child threshold: its
# nodes train in this process through the same fork-join, which starts no child.
SMALL_TWO_WORKER_RUN = ("import json, sys, switchnet, switchnet.pipeline; "
                        "config = switchnet.load_config(switchnet.default_config_path(), "
                        "['train.epochs=3', 'network.workers=2', 'output.dir=' + sys.argv[1]]); "
                        "steps = config.train.epochs * sum(config.plan.counts); "
                        "bundle = switchnet.run_pipeline(config); "
                        "print(json.dumps([steps < switchnet.pipeline.POOL_MIN_STEPS, "
                        "json.loads(bundle.fed_timings_json.read_text())['workers'], sorted(sys.modules)]))")


def test_run_below_the_child_threshold_loads_no_multiprocessing(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", SMALL_TWO_WORKER_RUN, str(tmp_path / "out")], env=env,
                         capture_output=True, text=True, check=True).stdout
    below, workers, loaded = json.loads(out)
    assert below
    assert workers == 1
    assert [m for m in loaded if m == "multiprocessing" or m.startswith("multiprocessing.")] == []
