"""switchnet benchmark: config -> bundle-on-disk wall time, one closed-loop client.

    python3 bench/run.py --workload {default,train-heavy,eval-heavy} --seed N \
        --seconds S --trace {0,1} [--smoke] [--record-golden]

Run from anywhere inside a checkout; the program is imported from `src/`.
With `--trace 0` it measures untraced runs for S seconds and prints the
end-to-end metrics; with `--trace 1` it alternates untraced and traced runs
and prints the per-layer metrics and the tracing overhead. End-to-end times
are calibrated wall seconds (see `machine.calibrated`); the raw wall medians
are printed beside them. Every run's bundle is checked; a run that raises or
fails a check counts in `error_rate`. The last line of standard output is
the JSON result.
"""

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so bundle paths and digests do not depend on it
GOLDEN = BENCH_DIR / "golden.json"
SETUP_REPS = 3
CAPACITY_ITERATIONS = 4_000_000
SMOKE_CAPACITY_ITERATIONS = 100_000
TAIL_BEYOND = 10
IMPORT_PROBE = "import time; t = time.perf_counter(); import switchnet; print(time.perf_counter() - t)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("default", "train-heavy", "eval-heavy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken inputs and a short capacity probe, for testing the benchmark")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this workload's reference-seed digests in golden.json")
    return parser.parse_args(argv)


def import_program():
    """Import switchnet from this checkout's sources, never from an installed copy."""
    package = SRC / "switchnet"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no program sources at {package}")
    sys.path.insert(0, str(SRC))
    import switchnet
    if Path(switchnet.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported switchnet from {switchnet.__file__}, not from {package}")


def import_seconds() -> float:
    """Wall seconds of `import switchnet` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def tail(samples):
    """The highest sample with at least TAIL_BEYOND samples above it, its percentile and that count.

    With too few samples for that, the maximum (and 0 beyond it).
    """
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    import_program()
    # The benchmark's modules import switchnet, so they load only once it is found.
    import checks
    import machine
    import tracing
    import workloads

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    first_seed = workloads.run_seed(args.seed, 1)

    # Set-up, repeated: input generation and a warm-up run. Repetition 0 uses the
    # reference seed and gives the golden digest; the others warm up on the seed
    # of the first timed run, which must then reproduce the warm-up byte for byte.
    def set_up(reference: bool, rep_dir: Path):
        inputs = workloads.make_inputs(args.workload, workloads.REFERENCE_SEED if reference else args.seed,
                                       rep_dir, args.smoke)
        return inputs, workloads.run_cli(inputs.argv_for(workloads.REFERENCE_SEED if reference else first_seed))

    setup_parts = []
    for rep in range(SETUP_REPS):
        reference = rep == 0
        rep_dir = work / ("reference" if reference else "run")
        shutil.rmtree(rep_dir, ignore_errors=True)
        (inputs, rc), wall, scale = machine.calibrated(set_up, reference, rep_dir)
        setup_parts.append(wall * scale)
        if rc != 0:
            sys.exit(f"bench: warm-up run exited with {rc}")
        checks.check_bundle(inputs.bundle_dir)
        if reference:
            reference_digests = checks.digests(inputs.bundle_dir)
        else:
            warm_digests = checks.digests(inputs.bundle_dir)

    if args.record_golden:
        golden[args.workload] = reference_digests
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if args.smoke:
        golden_line = "skipped (smoke inputs)"
    elif args.workload not in golden:
        golden_line = "no recorded digest"
    else:
        drift = sorted(name for name in set(golden[args.workload]) | set(reference_digests)
                       if golden[args.workload].get(name) != reference_digests.get(name))
        golden_line = "match" if not drift else f"numeric drift in {drift}"

    # Worker-count invariance, once per invocation and outside the timed runs.
    invariance_error = None
    if args.workload == "train-heavy":
        serial = dataclasses.replace(inputs, bundle_dir=work / "workers1")
        rc = workloads.run_cli(serial.argv_for(first_seed, ("--set", "network.workers=1")))
        serial_digests = checks.digests(serial.bundle_dir) if rc == 0 else {}
        units = sorted(name for name in warm_digests if name.startswith("unit_"))
        if rc != 0 or any(serial_digests.get(u) != warm_digests[u] for u in units):
            invariance_error = "unit weights differ between workers=1 and workers=2"
        shutil.rmtree(serial.bundle_dir, ignore_errors=True)

    tracer = tracing.Tracer()
    untraced, traced, layer_runs = [], [], []  # calibrated seconds
    raw_untraced, raw_traced = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        index += 1
        is_traced = bool(args.trace) and index % 2 == 0
        argv = inputs.argv_for(workloads.run_seed(args.seed, index))
        shutil.rmtree(inputs.bundle_dir, ignore_errors=True)
        gc.collect()
        attempted += 1
        try:
            if is_traced:
                rc, wall, scale = machine.calibrated(tracer.traced_call, workloads.run_cli, argv)
            else:
                rc, wall, scale = machine.calibrated(workloads.run_cli, argv)
            if rc != 0:
                raise checks.CheckFailed(f"switchnet exited with {rc}")
            checks.check_bundle(inputs.bundle_dir)
            if index == 1:
                if checks.digests(inputs.bundle_dir) != warm_digests:
                    raise checks.CheckFailed("first timed run is not byte-identical to the warm-up")
                if invariance_error:
                    raise checks.CheckFailed(invariance_error)
            if is_traced:
                traced.append(wall * scale)
                raw_traced.append(wall)
                layer_runs.append(tracing.run_metrics(tracer, tracer.run,
                                                      checks.bundle_bytes(inputs.bundle_dir)))
            else:
                untraced.append(wall * scale)
                raw_untraced.append(wall)
        except Exception:  # every failure is counted, reported, and the loop goes on
            failed += 1
            traceback.print_exc()
        measured = bool(untraced) and (bool(traced) or not args.trace)
        if time.perf_counter() >= deadline + (0 if measured else args.seconds):
            break
    if not measured:
        sys.exit(f"bench: no successful {'traced and untraced ' if args.trace else ''}run")
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0

    # Import time is measured in fresh interpreters after the timed runs, so
    # that their memory does not count in peak_rss_mb.
    imports = []
    for _ in range(SETUP_REPS):
        seconds, _wall, scale = machine.calibrated(import_seconds)
        imports.append(seconds * scale)
    setup_s = statistics.median(i + part for i, part in zip(imports, setup_parts))
    machine_record = machine.record(SMOKE_CAPACITY_ITERATIONS if args.smoke else CAPACITY_ITERATIONS)

    pipeline_s = statistics.median(untraced)
    tail_s, tail_pct, tail_beyond = tail(untraced)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  smoke {args.smoke}")
    print("machine " + json.dumps(machine_record, sort_keys=True))
    print(f"golden digest at reference seed {workloads.REFERENCE_SEED}: {golden_line}")
    if args.workload == "train-heavy":
        print(f"worker invariance (workers=1 vs 2): {invariance_error or 'identical unit weights'}")
    print(f"pipeline_s       {pipeline_s:.6f} s  (calibrated median of {len(untraced)} untraced runs; "
          f"raw wall median {statistics.median(raw_untraced):.6f} s)")
    print(f"pipeline_s_tail  {tail_s:.6f} s  (p{tail_pct:.1f}, {tail_beyond} samples beyond, n={len(untraced)})")
    print(f"setup_s          {setup_s:.6f} s  (median of {SETUP_REPS} set-ups)")
    print(f"peak_rss_mb      {peak_rss_mb:.1f} MB")
    print(f"error_rate       {failed / attempted:.4f} ratio  ({failed} of {attempted} runs)")

    if args.trace:
        layers = tracing.median_metrics(layer_runs)
        layers["trace.overhead_s"] = statistics.median(traced) - pipeline_s
        print(f"tracing overhead {layers['trace.overhead_s']:.6f} s calibrated "
              f"({100.0 * layers['trace.overhead_s'] / pipeline_s:.1f}% of pipeline_s; {len(traced)} traced runs; "
              f"raw {statistics.median(raw_traced) - statistics.median(raw_untraced):.6f} s)")
        for name in sorted(layers):
            print(f"  {name:32s} {layers[name]:.6f}")
        (work / "spans.json").write_text(json.dumps(tracer.export()) + "\n", encoding="utf-8")
        values, section = layers, "per_layer"
    else:
        values = {"pipeline_s": pipeline_s, "pipeline_s_tail": tail_s, "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
        section = "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
