"""`import switchnet` loads only what every run uses: no XML, HTTP, e-mail or
SSL modules, and no process-pool modules until a run starts a pool."""
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
