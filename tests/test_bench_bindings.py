"""Every name the benchmark's tracer wraps is still bound in the program.

`bench/tracing.py` swaps these names with `getattr`/`setattr` in traced runs
only, so a deleted name would otherwise show first in the slow traced smoke
run. The guard reads the tracer's own tables, so it follows the benchmark
when the benchmark drops a name.
"""
import importlib
import sys
from pathlib import Path

import pytest

import switchnet.network
import switchnet.pipeline

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))


def test_pipeline_binds_every_traced_call(tracing):
    missing = [name for name in tracing.PIPELINE_CALLS
               if not callable(getattr(switchnet.pipeline, name, None))]
    assert missing == []


def test_network_binds_every_counted_call(tracing):
    missing = [name for name, _ in tracing.COUNTED
               if not callable(getattr(switchnet.network, name, None))]
    assert missing == []
