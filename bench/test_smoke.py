"""Smoke test of the benchmark itself: every workload, both modes, every declared metric.

    python -m pytest bench/test_smoke.py

Uses `--smoke` (shrunken inputs), so it checks the benchmark's code paths
and output contract, not performance.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(script: Path, *args, timeout=300):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_reports_every_declared_metric(workload, trace):
    out = _run(BENCH / "run.py", "--workload", workload, "--seed", "7", "--seconds", "0.5",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "error_rate" in out.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path / BENCH.name / "run.py", "--workload", "default", "--seed", "1",
               "--seconds", "1", "--trace", "0", timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
