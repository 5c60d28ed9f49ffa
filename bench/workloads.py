"""The three benchmark workloads: how each one's inputs are made and how a run is driven.

Every run is one full config -> bundle-on-disk through `switchnet.cli.main`,
so config parsing, CLI handling and the bundle write are inside the timing.
The program receives only the generated config (and, for eval-heavy, the
generated dataset CSV); all randomness comes from the benchmark's seed.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from switchnet import cli
from switchnet.pipeline import default_config_path

# The golden digest is recorded at this seed: it is the packaged config's seed,
# and for eval-heavy it also seeds the generated dataset.
REFERENCE_SEED = 42

TRAIN_HEAVY_FACTOR = 40
SMOKE_TRAIN_HEAVY_FACTOR = 2
EVAL_HEAVY_GROUPS = 8
EVAL_HEAVY_PER_GROUP = 1250
SMOKE_EVAL_HEAVY_PER_GROUP = 60
EVAL_HEAVY_PER_UNIT = 25


def run_seed(workload_seed: int, index: int) -> int:
    """Config seed of timed run `index` (1-based), derived from the workload seed."""
    digest = hashlib.sha256(f"switchnet-bench:{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Inputs:
    """What one set-up produced: the argv prefix for `cli.main` and the bundle directory."""
    argv: tuple
    bundle_dir: Path

    def argv_for(self, seed: int, extra=()) -> list:
        return [*self.argv, "--set", f"seed={seed}", "--set", f"output.dir={self.bundle_dir}", *extra]


def _write_eval_heavy_csv(path: Path, data_seed: int, per_group: int) -> None:
    """8 groups on a circle of radius 3; group g's label is 1 where x . (cos, sin) > 3."""
    rng = np.random.default_rng(np.random.SeedSequence([data_seed & ((1 << 64) - 1), 8]))
    with path.open("w", encoding="utf-8", newline="") as fh:
        for g in range(EVAL_HEAVY_GROUPS):
            fh.write(f"# group {g}: sector {g}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "group", "label", "f0", "f1"])
        obs_id = 0
        for g in range(EVAL_HEAVY_GROUPS):
            angle = 2.0 * math.pi * g / EVAL_HEAVY_GROUPS
            c, s = math.cos(angle), math.sin(angle)
            draws = rng.standard_normal((per_group, 2))
            for d0, d1 in draws:
                x0 = float(3.0 * c + 0.6 * d0)
                x1 = float(3.0 * s + 0.6 * d1)
                label = 1 if c * x0 + s * x1 - 3.0 > 0 else 0
                writer.writerow([obs_id, g, label, repr(x0), repr(x1)])
                obs_id += 1


def _eval_heavy_doc(dataset_name: str) -> dict:
    n = EVAL_HEAVY_GROUPS
    return {
        "seed": REFERENCE_SEED,
        "data": {"dataset": dataset_name, "holdout_fraction": 0.2},
        "partition": {"selection": "stratified", "counts": [EVAL_HEAVY_PER_UNIT] * n},
        "switch": {"n_units": n, "fallback": "error",
                   "entries": {str(g): [g, (g + 1) % n, (g + 2) % n] for g in range(n)}},
        "train": {"learning_rate": 0.1, "epochs": 50, "loss": "bce", "shuffle": True},
        "network": {"activation": "sigmoid", "aggregation": "linear-readout",
                    "heatmap_statistic": "mean", "workers": 1},
        "output": {"dir": "unused"},
    }


def make_inputs(workload: str, data_seed: int, work_dir: Path, smoke: bool) -> Inputs:
    """Write the workload's config and input files under `work_dir` (relative to the repo root)."""
    work_dir.mkdir(parents=True, exist_ok=True)
    bundle_dir = work_dir / "bundle"
    if workload == "default":
        return Inputs(argv=("pipeline", "--set", "network.workers=2"), bundle_dir=bundle_dir)
    config_path = work_dir / "config.json"
    if workload == "train-heavy":
        factor = SMOKE_TRAIN_HEAVY_FACTOR if smoke else TRAIN_HEAVY_FACTOR
        doc = json.loads(default_config_path().read_text(encoding="utf-8"))
        for group in doc["data"]["groups"]:
            group["count"] *= factor
        doc["partition"]["counts"] = [c * factor for c in doc["partition"]["counts"]]
        doc["network"]["workers"] = 2
    elif workload == "eval-heavy":
        per_group = SMOKE_EVAL_HEAVY_PER_GROUP if smoke else EVAL_HEAVY_PER_GROUP
        _write_eval_heavy_csv(work_dir / "data.csv", data_seed, per_group)
        doc = _eval_heavy_doc("data.csv")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    config_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return Inputs(argv=("pipeline", "--config", str(config_path)), bundle_dir=bundle_dir)


def run_cli(argv) -> int:
    """One closed-loop request: `switchnet pipeline ...`, its console output captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)
