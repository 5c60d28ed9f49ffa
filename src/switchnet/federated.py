"""Simulated decentralized training.

One virtual node per neuron unit, holding only that unit's assigned subset.
The runner trains nodes in parallel; every node derives its own random stream
from (seed, node_id), never from scheduling order, so results are bit-identical
for any worker count. Collection is pure assembly: no weight averaging.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .data import Dataset, Observation, PartitionSet
from .errors import FederatedError
from .network import ModularNetwork, assemble
from .neuron import NeuronUnit, TrainConfig, TrainLog, train_unit
from .seeding import derive_seed
from .switching import SwitchTable


@dataclass(frozen=True)
class Node:
    node_id: int
    unit: NeuronUnit
    subset_ids: tuple[int, ...]
    local_data: tuple[Observation, ...]

    def __post_init__(self):
        stray = {obs.id for obs in self.local_data} - set(self.subset_ids)
        if stray:
            raise FederatedError(f"node {self.node_id}: local data outside assigned subset: {sorted(stray)}")


@dataclass(frozen=True)
class FedRunReport:
    logs: tuple[TrainLog, ...]
    durations_ms: tuple[float, ...]
    workers: int
    schedule: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        """The deterministic part (`fed_report.json`): per-node losses, epochs and steps."""
        return {"workers": self.workers,
                "nodes": [{"node_id": i, "final_loss": log.final_loss,
                           "epochs": len(log.epoch_losses), "steps": log.steps,
                           "epoch_losses": list(log.epoch_losses)}
                          for i, log in enumerate(self.logs)]}

    def timings_to_json(self) -> dict:
        """The timing part (`fed_timings.json`): per-node durations and the worker schedule."""
        return {"workers": self.workers,
                "durations_ms": {str(i): d for i, d in enumerate(self.durations_ms)},
                "schedule": [list(s) for s in self.schedule]}


def make_nodes(partitions: PartitionSet, dataset: Dataset, units) -> tuple[Node, ...]:
    """One node per partition subset; node k holds unit k and only subset k's data."""
    units = tuple(units)
    subset_keys = partitions.unit_indices()
    if len(units) != len(subset_keys):
        raise FederatedError(f"{len(units)} units for {len(subset_keys)} partition subsets")
    by_index = {u.unit_index: u for u in units}
    if sorted(by_index) != list(subset_keys):
        raise FederatedError(f"unit indices {sorted(by_index)} do not match subsets {list(subset_keys)}")
    nodes = []
    for k in subset_keys:
        ids = tuple(partitions.subsets[k])
        local = tuple(dataset.observation(i) for i in ids)
        nodes.append(Node(node_id=k, unit=by_index[k], subset_ids=ids, local_data=local))
    return tuple(nodes)


def node_train_config(config: TrainConfig, node_id: int) -> TrainConfig:
    """The per-node config: same hyperparameters, seed derived from (seed, node_id)."""
    return replace(config, seed=derive_seed(config.seed, node_id))


def _train_node(node: Node, config: TrainConfig):
    started = time.perf_counter()
    trained, log = train_unit(node.unit, node.local_data, node_train_config(config, node.node_id))
    duration_ms = (time.perf_counter() - started) * 1000.0
    return node.node_id, trained, log, duration_ms, os.getpid()


def run_local_training(nodes, config: TrainConfig,
                       workers: int = 1) -> tuple[tuple[NeuronUnit, ...], FedRunReport]:
    """Train every node's unit on its own data, up to `workers` processes at a time.

    Output bits are independent of worker count; only the timings and the
    schedule differ. `workers=1` trains in this process, without a pool.
    """
    nodes = tuple(sorted(nodes, key=lambda n: n.node_id))
    if workers < 1:
        raise FederatedError(f"workers must be >= 1, got {workers}")
    ids = [n.node_id for n in nodes]
    if len(set(ids)) != len(ids):
        raise FederatedError(f"duplicate node ids: {ids}")

    results = {}
    if workers == 1:
        for node in nodes:
            try:
                results[node.node_id] = _train_node(node, config)
            except Exception as exc:
                raise FederatedError(f"node {node.node_id}: training failed: {exc}") from exc
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_train_node, node, config): node.node_id for node in nodes}
            for future, node_id in futures.items():
                try:
                    result = future.result()
                except Exception as exc:
                    raise FederatedError(f"node {node_id}: training failed: {exc}") from exc
                results[node_id] = result

    worker_ids = {}
    schedule = []
    for node_id in sorted(results):
        pid = results[node_id][4]
        worker_ids.setdefault(pid, len(worker_ids))
        schedule.append((node_id, worker_ids[pid]))
    trained = tuple(results[i][1] for i in sorted(results))
    report = FedRunReport(logs=tuple(results[i][2] for i in sorted(results)),
                          durations_ms=tuple(results[i][3] for i in sorted(results)),
                          workers=workers, schedule=tuple(schedule))
    return trained, report


def with_trained_units(nodes, units) -> tuple[Node, ...]:
    """Swap trained units back into their nodes (by node id) ahead of collection."""
    units = tuple(units)
    nodes = tuple(sorted(nodes, key=lambda n: n.node_id))
    if len(units) != len(nodes):
        raise FederatedError(f"{len(units)} trained units for {len(nodes)} nodes")
    return tuple(replace(node, unit=unit) for node, unit in zip(nodes, units))


def collect(nodes, switch: SwitchTable, aggregation="router-mean") -> ModularNetwork:
    """Assemble trained node units into one network, ordered by node id.

    Pure assembly: no weight averaging, no mutation of any unit.
    """
    ordered = sorted(nodes, key=lambda n: n.node_id)
    ids = [n.node_id for n in ordered]
    if ids != list(range(switch.n_units)):
        missing = sorted(set(range(switch.n_units)) - set(ids))
        if missing:
            raise FederatedError(f"missing node(s) {missing}: have ids {ids}")
        raise FederatedError(f"node ids {ids} do not match the switch's {switch.n_units} units")
    return assemble(tuple(n.unit for n in ordered), switch, aggregation)
