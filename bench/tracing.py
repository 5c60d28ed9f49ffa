"""Per-layer tracing applied from outside the program, for the traced run only.

`Tracer.installed()` replaces the names that `switchnet.pipeline` binds (and
`switchnet.cli.run_pipeline`) with wrappers that record a span per call, and
the names `switchnet.network` binds for `unit_forward` and `route` with
wrappers that only count calls. Leaving the context restores the originals,
so untraced runs execute the program unmodified.

Work inside the training pool cannot be wrapped from this process; it is
read from the `FedRunReport` that `run_local_training` returns
(`durations_ms`, `schedule`). Helper modules (`seeding`, `jsonio`, `errors`)
and the counted per-observation calls are timed inside their callers.
"""

import itertools
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import switchnet.cli
import switchnet.network
import switchnet.pipeline

LAYERS = ("data", "neuron", "federated", "switching", "network", "analysis", "pipeline", "cli")

# Name bound in switchnet.pipeline -> the layer (module) that defines it.
PIPELINE_CALLS = {
    "generate_synthetic": "data", "load_dataset": "data", "partition": "data",
    "make_test_sets": "data", "save_dataset": "data",
    "build_switch": "switching",
    "init_unit": "neuron", "save_unit": "neuron",
    "make_nodes": "federated", "run_local_training": "federated",
    "with_trained_units": "federated", "collect": "federated",
    "fit_readout": "network", "evaluate": "network", "neuron_contribution": "network",
    "save_network": "network",
    "heatmap": "analysis", "attribute": "analysis", "export_heatmap_csv": "analysis",
    "render_heatmap_svg": "analysis", "save_attribution": "analysis",
}
# Calls made only by the pipeline's write stage.
WRITERS = frozenset({"save_dataset", "save_unit", "save_network", "export_heatmap_csv",
                     "render_heatmap_svg", "save_attribution"})
EXPORTS = ("export_heatmap_csv", "render_heatmap_svg", "save_attribution")
COUNTED = (("unit_forward", "network.unit_forward_calls"), ("route", "switching.route_calls"))


@dataclass
class Span:
    run: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: "int | None" = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _forward_obs(name, args) -> int:
    """Gated predictions a call makes: one per id, times (units + 1) for ablation."""
    net, ids = args[0], args[1]
    return len(ids) * (net.n_units + 1 if name == "neuron_contribution" else 1)


class Tracer:
    """Spans and counts of traced runs, kept in memory until the benchmark ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = Counter()
        self.fed_reports = []
        self._tallies = {}
        self.run = 0
        self._stack: list[int] = []

    def span(self, name: str, layer: str, fn):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(Span(self.run, name, layer, time.perf_counter(), 0.0,
                                   self._stack[-1] if self._stack else None))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = time.perf_counter()
            if name == "run_local_training":
                self.fed_reports.append((self.run, result[1]))
            elif name in ("evaluate", "neuron_contribution"):
                self.counts[(self.run, "forward_obs")] += _forward_obs(name, args)
            return result
        return wrapper

    def counter(self, key: str, fn):
        """Count calls without timing them: these run once per observation and unit."""
        ticks = itertools.count(1)
        tick = ticks.__next__
        self._tallies[(self.run, key)] = ticks

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the program's bound names for one traced run, then restore them."""
        patches = [(switchnet.pipeline, name, self.span(name, layer, getattr(switchnet.pipeline, name)))
                   for name, layer in PIPELINE_CALLS.items()]
        patches.append((switchnet.cli, "run_pipeline",
                        self.span("run_pipeline", "pipeline", switchnet.cli.run_pipeline)))
        patches += [(switchnet.network, name, self.counter(key, getattr(switchnet.network, name)))
                    for name, key in COUNTED]
        originals = [(module, name, getattr(module, name)) for module, name, _ in patches]
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        try:
            yield
        finally:
            for module, name, original in originals:
                setattr(module, name, original)
            for key, ticks in self._tallies.items():
                self.counts[key] = next(ticks) - 1
            self._tallies.clear()

    def traced_call(self, fn, *args):
        """Run `fn(*args)` as one traced request (the root span is `cli.main`)."""
        self.run += 1
        with self.installed():
            return self.span("cli.main", "cli", fn)(*args)

    def export(self) -> list:
        return [{"run": s.run, "name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
                 "parent": s.parent} for s in self.spans]


def _add_write_span(spans: list, root: int) -> None:
    """Split the pipeline's write stage out of `run_pipeline`'s self time.

    The stage runs from the end of the pipeline's last compute call to the end
    of `run_pipeline`; the writer calls in that interval become its children.
    """
    pipe = next(i for i, s in enumerate(spans) if s.name == "run_pipeline" and s.parent == root)
    children = [i for i, s in enumerate(spans) if s.parent == pipe]
    start = max(spans[i].end for i in children if spans[i].name not in WRITERS)
    write = len(spans)
    spans.append(Span(spans[pipe].run, "write", "pipeline", start, spans[pipe].end, pipe))
    for i in children:
        if spans[i].start >= start:
            spans[i].parent = write


def run_metrics(tracer: Tracer, run: int, bundle_bytes: int) -> dict:
    """Per-layer metrics of one traced run."""
    offset = next(i for i, s in enumerate(tracer.spans) if s.run == run)
    spans = [Span(s.run, s.name, s.layer, s.start, s.end,
                  None if s.parent is None else s.parent - offset)
             for s in tracer.spans if s.run == run]
    root = 0
    _add_write_span(spans, root)

    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    self_time = [s.duration - child_time[i] for i, s in enumerate(spans)]
    total = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
    layer_self = defaultdict(float)
    for s, t in zip(spans, self_time):
        layer_self[s.layer] += t

    report = next(r for r_run, r in tracer.fed_reports if r_run == run)
    per_worker = defaultdict(float)
    for (node_id, worker), ms in zip(report.schedule, report.durations_ms):
        per_worker[worker] += ms / 1000.0
    busy = sum(report.durations_ms) / 1000.0
    busiest = max(per_worker.values())
    train_s = total["run_local_training"]
    steps = sum(log.steps for log in report.logs)
    # The busiest worker's node time is the neuron layer's share of the blocking
    # path; the rest of the training wall is pool and orchestration overhead.
    layer_self["neuron"] += busiest
    layer_self["federated"] -= busiest
    wall = spans[root].duration
    eval_s = total["evaluate"] + total["neuron_contribution"]

    metrics = {
        "data.test_sets_s": total["make_test_sets"],
        "data.generate_s": total["generate_synthetic"],
        "data.load_s": total["load_dataset"],
        "data.partition_s": total["partition"],
        "data.save_s": total["save_dataset"],
        "neuron.sgd_steps": steps,
        "neuron.sgd_steps_per_s": steps / busy,
        "federated.train_s": train_s,
        "federated.node_busy_s": busy,
        "federated.pool_overhead_s": train_s - busiest,
        "federated.parallel_efficiency": busy / (train_s * len(per_worker)),
        "federated.workers_used": len(per_worker),
        "network.contribution_s": total["neuron_contribution"],
        "network.unit_forward_calls": tracer.counts[(run, "network.unit_forward_calls")],
        "switching.route_calls": tracer.counts[(run, "switching.route_calls")],
        "network.evaluate_s": total["evaluate"],
        "network.forward_obs_per_s": tracer.counts[(run, "forward_obs")] / eval_s,
        "network.readout_s": total["fit_readout"],
        "analysis.heatmap_s": total["heatmap"],
        "analysis.export_s": sum(total[name] for name in EXPORTS),
        "pipeline.write_s": total["write"],
        "pipeline.bundle_bytes": bundle_bytes,
        "pipeline.self_s": next(t for s, t in zip(spans, self_time) if s.name == "run_pipeline"),
        "cli.self_s": self_time[root],
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = 100.0 * layer_self[layer] / wall
    return metrics


def median_metrics(per_run: list) -> dict:
    return {key: statistics.median(m[key] for m in per_run) for key in per_run[0]}
