"""Simulated decentralized training.

One virtual node per neuron unit, holding only that unit's assigned subset:
its rows of the dataset, in subset order, as a `Dataset` of their own. The
runner splits the nodes into one share per worker it is given (capped at the
node count), trains share 0 in this process and each other share in a child
process of its own, which sends its outcomes back over a one-way pipe and
exits; the pipeline decides when children pay for themselves
(`pipeline.POOL_MIN_STEPS`). Every node trains under its own seed,
`derive_seed(seed, "node", node_id)`, never one taken from scheduling order,
so results are bit-identical for any worker count. Collection is pure
assembly: no weight averaging.

`multiprocessing` is imported where the first child starts, so a run that
trains in this process alone never loads it (nor `subprocess`, `socket`, ...).
The generated SGD each node's fit runs, one call for all its epochs, is
compiled in this process before any child starts, so a forked child inherits
it instead of compiling its own.
"""

import time
from dataclasses import dataclass, replace

from .data import Dataset, PartitionSet
from .errors import FederatedError, TrainingError
from .network import ModularNetwork, assemble
from .neuron import NeuronUnit, TrainConfig, TrainLog, _check_pair, _epoch_for, train_unit
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
        return {"nodes": [{"node_id": i, **log.to_json()} for i, log in enumerate(self.logs)]}

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
    return trained, log, duration_ms


def _shares(nodes, workers: int) -> list[list[Node]]:
    """Split the nodes into `workers` shares, each in node-id order: the node
    with the most rows first (the lower id among equals), each to the share with
    the fewest rows so far (the lower index among equals). Every node of a run
    trains for the same epochs, so rows stand for SGD steps."""
    shares = [[] for _ in range(workers)]
    loads = [0] * workers
    for node in sorted(nodes, key=lambda n: (-len(n.local_data), n.node_id)):
        least = loads.index(min(loads))
        shares[least].append(node)
        loads[least] += len(node.local_data)
    return [sorted(share, key=lambda n: n.node_id) for share in shares]


def _train_share(nodes, config: TrainConfig) -> list:
    """Train the nodes in order: one `_train_node` outcome each, up to the first
    node that fails, whose outcome is its exception."""
    outcomes = []
    for node in nodes:
        try:
            outcomes.append(_train_node(node, config))
        except Exception as exc:
            outcomes.append(exc)
            break
    return outcomes


def _child(nodes, config: TrainConfig, sender) -> None:
    """A child process's whole work: train its share and send the outcomes."""
    with sender:
        sender.send(_train_share(nodes, config))


def _compile_epochs(nodes, loss: str) -> None:
    """Compile here each generated SGD the nodes' training will compile, so that
    forked children inherit it; a node whose pair is refused reports that itself."""
    for width, activation in {(n.unit.dim, n.unit.activation) for n in nodes
                              if n.unit.dim == n.local_data.dim}:
        try:
            _check_pair(activation, loss)
        except TrainingError:
            continue
        _epoch_for(width, activation, loss)


def _fork_join(shares, config: TrainConfig) -> list[list]:
    """Train shares[0] in this process and every other share in a child process
    of its own; return each share's `_train_share` outcomes, in share order. A
    child that exits without sending fails its share's first node. No child
    outlives the call."""
    children = []
    try:
        for share in shares[1:]:
            import multiprocessing  # here, so a run with one share never loads it

            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_child, args=(share, config, sender))
            with sender:
                child.start()
            children.append((child, receiver))
        outcomes = [_train_share(shares[0], config)]
        for child, receiver in children:
            try:
                outcomes.append(receiver.recv())
            except EOFError:
                child.join()
                outcomes.append([FederatedError(f"worker process exited with code {child.exitcode}")])
        return outcomes
    except BaseException:
        for child, _ in children:
            child.kill()
        raise
    finally:
        for child, receiver in children:
            receiver.close()
            child.join()


def run_local_training(nodes, config: TrainConfig,
                       workers: int = 1) -> tuple[tuple[NeuronUnit, ...], FedRunReport]:
    """Train every node's unit on its own data on up to `workers` processes:
    this one and `workers - 1` children (never more than there are nodes).

    Output bits are independent of worker count; only the timings and the
    schedule, which pairs each node id with its share (0 is this process),
    differ. With one worker the nodes train in this process, in node-id order.
    A failure raises for the lowest failing node id once every share is done.
    """
    nodes = tuple(sorted(nodes, key=lambda n: n.node_id))
    if workers < 1:
        raise FederatedError(f"workers must be >= 1, got {workers}")
    ids = [n.node_id for n in nodes]
    if len(set(ids)) != len(ids):
        raise FederatedError(f"duplicate node ids: {ids}")
    workers = max(1, min(workers, len(nodes)))

    if workers > 1:
        _compile_epochs(nodes, config.loss)
    shares = _shares(nodes, workers)
    outcomes = _fork_join(shares, config)
    done = sorted((node.node_id, share, outcome) for share, members in enumerate(shares)
                  for node, outcome in zip(members, outcomes[share]))
    for node_id, _, outcome in done:
        if isinstance(outcome, Exception):
            raise FederatedError(f"node {node_id}: training failed: {outcome}") from outcome
    report = FedRunReport(logs=tuple(outcome[1] for _, _, outcome in done),
                          durations_ms=tuple(outcome[2] for _, _, outcome in done),
                          workers=workers, schedule=tuple((node_id, share) for node_id, share, _ in done))
    return tuple(outcome[0] for _, _, outcome in done), report


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
