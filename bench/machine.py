"""Machine speed: the calibration of every timing, and the machine record.

On a shared host the CPU speed a process gets drifts; on the 2-vCPU Xeon
host this benchmark was defined on, a fixed burn's 5-second medians ranged
over 1.8x and whole 30-second windows by over 25%. So every timed piece is
bracketed by two fixed burns and reported at a reference speed.

The pool's numbers also depend on how much of a second CPU the process
really gets, which can differ from `nproc`, so the record includes a
measured two-process capacity: one burn alone, then two at once.
"""

import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


def burn(iterations: int) -> float:
    """Fixed pure-Python work; returns its wall seconds."""
    started = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1000003
    return time.perf_counter() - started


CALIBRATION_ITERATIONS = 500_000
# Wall seconds of the two bracketing burns at the host's median speed; it only sets the scale.
CALIBRATION_REFERENCE_S = 0.09


def calibrated(fn, *args):
    """Run `fn(*args)` between two calibration burns.

    Returns (result, wall seconds, scale): `wall * scale` is the wall time at
    the reference speed, scale = CALIBRATION_REFERENCE_S / the burns' wall.
    """
    burned = burn(CALIBRATION_ITERATIONS)
    started = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - started
    burned += burn(CALIBRATION_ITERATIONS)
    return result, wall, CALIBRATION_REFERENCE_S / burned


# A probe process reports "ready" once imported, burns once its stdin is closed,
# and prints its burn's start and end (perf_counter is system-wide on Linux).
_PROBE = ("import sys, time; from machine import burn; print('ready', flush=True); sys.stdin.read(1); "
          "t = time.perf_counter(); burn({n}); print(t, time.perf_counter())")


def parallel_capacity(iterations: int) -> dict:
    """Speed-up of two concurrent burns in two processes over the same two burns in series."""
    solo = burn(iterations)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent))
    procs = [subprocess.Popen([sys.executable, "-c", _PROBE.format(n=iterations)], env=env,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    try:
        for p in procs:
            if p.stdout.readline().strip() != "ready":
                raise RuntimeError("capacity probe process failed to start")
        for p in procs:
            p.stdin.close()  # end of input releases the burn
        spans = [tuple(float(v) for v in p.stdout.readline().split()) for p in procs]
    finally:
        for p in procs:
            p.stdin.close()
            try:
                p.wait(timeout=120)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            p.stdout.close()
    pair_wall = max(end for _, end in spans) - min(start for start, _ in spans)
    return {"solo_s": solo, "pair_wall_s": pair_wall, "capacity": 2.0 * solo / pair_wall}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cpu_quota() -> str:
    try:
        return Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        return "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def record(capacity_iterations: int) -> dict:
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cgroup_cpu_max": _cpu_quota(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
            "two_process_capacity": parallel_capacity(capacity_iterations)}
