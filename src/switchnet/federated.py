"""Simulated decentralized training.

One virtual node per neuron unit, holding only that unit's assigned subset:
its rows of the dataset, in subset order, as a `Dataset` of their own, so a
process pool is sent a few columns per node, not one object per observation.
The runner trains the nodes in this process or on a process pool of exactly
the size it is given (capped at the node count); the pipeline decides when a
pool pays for itself (`pipeline.POOL_MIN_STEPS`). Every node trains under its
own seed, `derive_seed(seed, "node", node_id)`, never one taken from scheduling
order, so results are bit-identical for any worker count. Collection is pure
assembly: no weight averaging.

`concurrent.futures.ProcessPoolExecutor` is imported where a pool starts, so a
run that trains in this process never loads the process-pool modules
(`multiprocessing`, `subprocess`, `logging`, ...).
"""

import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, replace
from itertools import repeat

from .data import Dataset, PartitionSet
from .errors import FederatedError
from .network import ModularNetwork, assemble
from .neuron import NeuronUnit, TrainConfig, TrainLog, train_unit
from .seeding import derive_seed
from .switching import SwitchTable


@dataclass(frozen=True)
class Node:
    unit: NeuronUnit
    local_data: Dataset

    @property
    def node_id(self) -> int:
        return self.unit.unit_index


@dataclass(frozen=True)
class FedRunReport:
    logs: tuple[TrainLog, ...]
    durations_ms: tuple[float, ...]
    workers: int
    schedule: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        """The deterministic part (`fed_report.json`): per-node losses, epochs and
        steps; no worker count, so it is the same for any number of workers."""
        return {"nodes": [{"node_id": i, "final_loss": log.final_loss,
                           "epochs": len(log.epoch_losses), "steps": log.steps,
                           "epoch_losses": list(log.epoch_losses)}
                          for i, log in enumerate(self.logs)]}

    def timings_to_json(self) -> dict:
        """The timing part (`fed_timings.json`): per-node durations and the worker schedule."""
        return {"workers": self.workers,
                "durations_ms": {str(i): d for i, d in enumerate(self.durations_ms)},
                "schedule": [list(s) for s in self.schedule]}


def make_nodes(partitions: PartitionSet, dataset: Dataset, units) -> tuple[Node, ...]:
    """One node per partition subset; node k holds unit k and only subset k's rows, in subset order."""
    units = tuple(units)
    by_index = {u.unit_index: u for u in units}
    n = len(partitions.subsets)
    if len(units) != n or sorted(by_index) != list(range(n)):
        raise FederatedError(f"{len(units)} units with indices {sorted(by_index)} "
                             f"for {n} partition subsets")
    return tuple(Node(unit=by_index[k], local_data=dataset.subset(ids))
                 for k, ids in enumerate(partitions.subsets))


def node_train_config(config: TrainConfig, node_id: int) -> TrainConfig:
    """The per-node config: same hyperparameters, seed derived from (seed, "node", node_id)."""
    return replace(config, seed=derive_seed(config.seed, "node", node_id))


def _train_node(node: Node, config: TrainConfig):
    started = time.perf_counter()
    trained, log = train_unit(node.unit, node.local_data, node_train_config(config, node.node_id))
    duration_ms = (time.perf_counter() - started) * 1000.0
    return trained, log, duration_ms, os.getpid()


def run_local_training(nodes, config: TrainConfig,
                       workers: int = 1) -> tuple[tuple[NeuronUnit, ...], FedRunReport]:
    """Train every node's unit on its own data, in node-id order, on up to
    `workers` processes (never more than there are nodes).

    Output bits are independent of worker count; only the timings and the
    schedule differ. With one worker the nodes train in this process.
    """
    nodes = tuple(sorted(nodes, key=lambda n: n.node_id))
    if workers < 1:
        raise FederatedError(f"workers must be >= 1, got {workers}")
    ids = [n.node_id for n in nodes]
    if len(set(ids)) != len(ids):
        raise FederatedError(f"duplicate node ids: {ids}")
    workers = max(1, min(workers, len(nodes)))

    trained, logs, durations_ms, schedule, worker_ids = [], [], [], [], {}
    with ExitStack() as stack:
        run = map
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            run = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        outcomes = run(_train_node, nodes, repeat(config))
        for node in nodes:
            try:
                unit, log, duration_ms, pid = next(outcomes)
            except Exception as exc:
                raise FederatedError(f"node {node.node_id}: training failed: {exc}") from exc
            trained.append(unit)
            logs.append(log)
            durations_ms.append(duration_ms)
            schedule.append((node.node_id, worker_ids.setdefault(pid, len(worker_ids))))
    report = FedRunReport(logs=tuple(logs), durations_ms=tuple(durations_ms), workers=workers,
                          schedule=tuple(schedule))
    return tuple(trained), report


def with_trained_units(nodes, units) -> tuple[Node, ...]:
    """Swap trained units back into their nodes (by node id) ahead of collection."""
    units = tuple(units)
    nodes = tuple(sorted(nodes, key=lambda n: n.node_id))
    if len(units) != len(nodes):
        raise FederatedError(f"{len(units)} trained units for {len(nodes)} nodes")
    return tuple(replace(node, unit=unit) for node, unit in zip(nodes, units))


def collect(nodes, switch: SwitchTable, aggregation="router-mean") -> ModularNetwork:
    """Assemble trained node units into one network, ordered by node id.

    Pure assembly: no weight averaging, no mutation of any unit. A missing,
    repeated or extra node id is the network's NetworkError: the sorted ids
    must be the switch's unit indices.
    """
    ordered = sorted(nodes, key=lambda n: n.node_id)
    return assemble(tuple(n.unit for n in ordered), switch, aggregation)
