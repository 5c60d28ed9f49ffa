"""Assembled network: trained units behind a switch, with gated evaluation.

The switch routes each group to its active units; inactive units are skipped
entirely, so their gated activation is exactly 0.0 and their parameters are
never read. Every gated pass reads one gated table per id list, built by group
block. A block is one index gather from the dataset's columns (the id list's
rows of one group, in id-list order), and each active unit is computed over
its block's feature columns by the column kernel, which runs the scalar
kernel's `_z` and `_mean` on numpy float64 columns: they sum elementwise in
the same left-to-right order (exp and tanh stay on `math`), so every value
equals `unit_forward` and the router mean on one observation bit for bit.
`forward` is the table's one-row case. Ablating a unit re-scores the blocks
where it is active.

A readout's label needs no sigmoid wherever the logit's sign decides it:
`_label_column` labels a row 1 where its logit is >= 0 (there
`1 / (1 + exp(-z))` is >= 0.5), and 0 where it is NaN or at most -1e-6 (there
the sigmoid is at most about 0.49999975). Only logits in (-1e-6, 0) go
through the sigmoid, since rounding takes some of them, the ones within about
1.1e-16 of 0, to a score of exactly 0.5. So every label is the one the scalar
pass's score gives. `math.exp` and `math.tanh` fill their columns through
`np.fromiter`, without a list between them and numpy.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._version import ARTIFACT_VERSION
from .data import Dataset, Observation
from .errors import NetworkError, TrainingError
from .jsonio import floats, read_input, write_json
from .neuron import NeuronUnit, TrainConfig, _sgd, _z, unit_from_dict, unit_to_dict
# Unused here, but the benchmark's tracer counts calls through this name: keep it bound.
from .neuron import unit_forward  # noqa: F401
from .switching import SwitchTable, route

ROUTER_MEAN = "router-mean"
AGGREGATIONS = (ROUTER_MEAN, "linear-readout")
SET_KINDS = ("overlapping", "non-overlapping")


@dataclass(frozen=True)
class LinearReadout:
    weights: tuple[float, ...]
    bias: float = 0.0


@dataclass(frozen=True)
class ModularNetwork:
    """Trained units behind a switch: units[k] is unit k, one per switch slot, so
    the units' indices are exactly 0..switch.n_units-1 in order."""
    units: tuple[NeuronUnit, ...]
    switch: SwitchTable
    aggregation: "str | LinearReadout" = ROUTER_MEAN

    def __post_init__(self):
        if not self.units:
            raise NetworkError("a network needs at least one unit")
        n = self.switch.n_units
        indices = [unit.unit_index for unit in self.units]
        if indices != list(range(n)):
            raise NetworkError(f"switch expects {n} units, indices 0..{n - 1} in order; got indices {indices}")
        dim = self.units[0].dim
        for unit in self.units:
            if unit.dim != dim:
                raise NetworkError(f"unit {unit.unit_index} has dim {unit.dim}, expected {dim}")
        if isinstance(self.aggregation, str):
            if self.aggregation != ROUTER_MEAN:
                raise NetworkError(f"unknown aggregation {self.aggregation!r}")
        elif isinstance(self.aggregation, LinearReadout):
            if len(self.aggregation.weights) != len(self.units):
                raise NetworkError(
                    f"readout has {len(self.aggregation.weights)} weights for {len(self.units)} units")
        else:
            raise NetworkError(f"unknown aggregation {self.aggregation!r}")

    @property
    def dim(self) -> int:
        return self.units[0].dim

    @property
    def n_units(self) -> int:
        return len(self.units)


@dataclass(frozen=True)
class Prediction:
    score: float
    predicted_label: int
    active: tuple[int, ...]
    gated_activations: tuple[float, ...]


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    per_group_accuracy: dict
    n: int
    set_kind: str

    def to_json(self) -> dict:
        return {"accuracy": self.accuracy,
                "per_group_accuracy": {str(g): v for g, v in sorted(self.per_group_accuracy.items())},
                "n": self.n, "set_kind": self.set_kind, "version": ARTIFACT_VERSION}


@dataclass(frozen=True)
class UnitContribution:
    unit_index: int
    full_accuracy: float
    ablated_accuracy: float
    contribution: float


@dataclass(frozen=True)
class ContributionReport:
    rows: tuple[UnitContribution, ...]

    def to_json(self) -> dict:
        return {"units": [{"unit": r.unit_index, "full": r.full_accuracy,
                           "ablated": r.ablated_accuracy, "contribution": r.contribution}
                          for r in self.rows]}


def assemble(units, switch: SwitchTable, aggregation="router-mean") -> ModularNetwork:
    """Build an immutable network from trained units, a switch, and an aggregation.

    aggregation is either "router-mean" or a LinearReadout (pass fit_readout
    later to train the readout without touching unit weights).
    """
    if isinstance(aggregation, str) and aggregation == "linear-readout":
        aggregation = LinearReadout(weights=(0.0,) * len(tuple(units)), bias=0.0)
    return ModularNetwork(units=tuple(units), switch=switch, aggregation=aggregation)


def _mean(values) -> float:
    """Mean summed left to right, on every Python (builtin `sum` of floats is
    compensated from 3.12 on, which would move the bits)."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


@np.errstate(all="ignore")  # inf - inf and overflow as Python floats give them, without warnings
def _means(columns) -> list:
    """`_mean` of each equal-length column, bit for bit: one `np.add.accumulate`,
    which adds strictly left to right, over the (column, row) table behind a
    leading 0.0 column, which turns a first -0.0 into 0.0 as `_mean`'s running
    total from 0.0 does."""
    table = np.zeros((len(columns), len(columns[0]) + 1))
    table[:, 1:] = columns
    return (np.add.accumulate(table, axis=1)[:, -1] / len(columns[0])).tolist()


@np.errstate(all="ignore")
def _sigmoid_column(z: np.ndarray) -> np.ndarray:
    """`_sigmoid` elementwise; exp stays on `math`, since `np.exp` is not bit-identical."""
    e = np.fromiter(map(math.exp, (-np.abs(z)).tolist()), float, count=len(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _activate_column(kind: str, z: np.ndarray) -> np.ndarray:
    """`_activate` elementwise, branch for branch."""
    if kind == "sigmoid":
        return _sigmoid_column(z)
    if kind == "relu":
        return np.where(z > 0, z, 0.0)
    return np.fromiter(map(math.tanh, z.tolist()), float, count=len(z))


@np.errstate(all="ignore")  # overflow and nan as Python floats give them, without warnings
def _unit_column(unit: NeuronUnit, features: np.ndarray) -> np.ndarray:
    """`unit_forward` on every row of a (rows, dim) feature array, bit for bit:
    `_z` over the feature columns sums elementwise in the same order."""
    return _activate_column(unit.activation, _z(unit.weights, unit.bias, features.T))


@np.errstate(all="ignore")
def _score_column(aggregation, columns, active, n: int) -> np.ndarray:
    """Score of every row of a block of gated columns: the readout's sigmoid over
    every slot, or the left-to-right mean of the active slots (0.5 when none is
    active)."""
    if isinstance(aggregation, LinearReadout):
        return _sigmoid_column(_z(aggregation.weights, aggregation.bias, columns))
    return _mean([columns[i] for i in active]) if active else np.full(n, 0.5)


# Below this logit the readout's score is at most about 0.49999975, so label 0.
_SIGN_DECIDES_BELOW = -1e-6


@np.errstate(all="ignore")
def _label_column(aggregation, columns, active, n: int) -> np.ndarray:
    """Predicted label (bool) of every row of a block of gated columns: 1 where
    the score `_score_column` gives is >= 0.5, so a tie falls to label 1. A
    readout's label is read off its logit's sign, the sigmoid taken only for
    logits in (-1e-6, 0), where rounding can lift the score to 0.5."""
    if not isinstance(aggregation, LinearReadout):
        return _score_column(aggregation, columns, active, n) >= 0.5
    z = _z(aggregation.weights, aggregation.bias, columns)
    labels = z >= 0
    near = np.flatnonzero((z < 0) & (z > _SIGN_DECIDES_BELOW))
    if len(near):
        labels[near] = _sigmoid_column(z[near]) >= 0.5
    return labels


def _hits(aggregation, columns, active, labels: np.ndarray) -> int:
    """Correct predictions in a block."""
    return int(np.count_nonzero(_label_column(aggregation, columns, active, len(labels)) == labels))


@dataclass(frozen=True)
class _Block:
    """One group's rows of an id list, in id-list order: `positions` are their
    places in the id list, `labels` and `features` their dataset rows."""
    group: int
    positions: np.ndarray
    labels: np.ndarray
    features: np.ndarray


def _group_blocks(net: ModularNetwork, ids, dataset: Dataset) -> list:
    """The id list split by group: groups in order of first appearance, each
    block one index gather from the dataset's columns."""
    if dataset.dim != net.dim:
        raise NetworkError(f"dataset has {dataset.dim} features per observation, "
                           f"the network expects {net.dim}")
    rows = dataset.row_index(ids)
    groups = dataset.row_groups[rows]
    blocks = []
    for group in dict.fromkeys(groups.tolist()):  # in order of first appearance
        positions = np.flatnonzero(groups == group)
        block_rows = rows[positions]
        blocks.append(_Block(group=group, positions=positions, labels=dataset.labels[block_rows],
                             features=dataset.features[block_rows]))
    return blocks


def _gated_columns(net: ModularNetwork, active, features: np.ndarray) -> list:
    """One column per unit over a (rows, dim) feature array: each active unit's
    activations, and for every inactive slot one shared zero column, its unit
    never read."""
    columns = [np.zeros(len(features))] * net.n_units
    for i in active:
        columns[i] = _unit_column(net.units[i], features)
    return columns


def _gated_table(net: ModularNetwork, ids, dataset: Dataset) -> list:
    """Gated columns of an id list by group block: one (block, active units,
    columns) triple per group, `route` run once per distinct group."""
    table = []
    for block in _group_blocks(net, ids, dataset):
        active = route(net.switch, block.group)
        table.append((block, active, _gated_columns(net, active, block.features)))
    return table


def forward(net: ModularNetwork, obs: Observation) -> Prediction:
    """Switch-gated prediction for one observation: the gated table's one-row case."""
    if len(obs.features) != net.dim:
        raise NetworkError(f"observation {obs.id} has {len(obs.features)} features, expected {net.dim}")
    active = route(net.switch, obs.group)
    columns = _gated_columns(net, active, np.array([obs.features], dtype=float))
    return Prediction(score=_score_column(net.aggregation, columns, active, 1).item(),
                      predicted_label=int(_label_column(net.aggregation, columns, active, 1).item()),
                      active=active, gated_activations=tuple(column.item() for column in columns))


def evaluate(net: ModularNetwork, ids, dataset: Dataset, set_kind: str) -> Metrics:
    """Accuracy and per-group accuracy of gated predictions over the id list."""
    ids = tuple(ids)
    if not ids:
        raise NetworkError("evaluate needs at least one observation id")
    if set_kind not in SET_KINDS:
        raise NetworkError(f"set_kind must be one of {SET_KINDS}, got {set_kind!r}")
    group_n = {}
    group_correct = {}
    for block, active, columns in _gated_table(net, ids, dataset):
        group_n[block.group] = len(block.positions)
        group_correct[block.group] = _hits(net.aggregation, columns, active, block.labels)
    per_group = {g: group_correct[g] / group_n[g] for g in sorted(group_n)}
    return Metrics(accuracy=sum(group_correct.values()) / len(ids), per_group_accuracy=per_group,
                   n=len(ids), set_kind=set_kind)


def fit_readout(net: ModularNetwork, ids, dataset: Dataset, config: TrainConfig) -> ModularNetwork:
    """Fit the linear readout on gated activation vectors; units stay frozen.

    The readout is a sigmoid unit over the gated vector, trained by the unit
    trainer's SGD; its epoch orders come from the one shuffle stream
    `rng_for(config.seed, "shuffle", "readout")`.
    """
    if not isinstance(net.aggregation, LinearReadout):
        raise NetworkError("fit_readout requires linear-readout aggregation")
    ids = tuple(ids)
    if not ids:
        raise NetworkError("fit_readout needs a non-empty calibration set")
    rows = [None] * len(ids)
    for block, _, columns in _gated_table(net, ids, dataset):
        gated = np.column_stack(columns).tolist()
        for position, vector, label in zip(block.positions, gated, block.labels.tolist()):
            rows[position] = (vector, label)
    try:
        weights, bias, _ = _sgd(net.aggregation.weights, net.aggregation.bias, rows, "sigmoid",
                                config, "readout")
    except TrainingError as exc:
        raise NetworkError(f"readout: {exc}") from None
    readout = LinearReadout(weights=tuple(weights), bias=bias)
    return ModularNetwork(units=net.units, switch=net.switch, aggregation=readout)


def neuron_contribution(net: ModularNetwork, ids, dataset: Dataset) -> ContributionReport:
    """Per-unit accuracy contribution: full accuracy minus accuracy with the unit ablated.

    Ablating unit u changes only the blocks where u is active; each is
    re-scored once with u's column at 0.0 and u out of the active set.
    """
    ids = tuple(ids)
    if not ids:
        raise NetworkError("neuron_contribution needs at least one observation id")
    full_correct = 0
    lost = [0] * net.n_units
    for block, active, columns in _gated_table(net, ids, dataset):
        hits = _hits(net.aggregation, columns, active, block.labels)
        full_correct += hits
        zero = np.zeros(len(block.positions))
        for u in active:
            ablated = list(columns)
            ablated[u] = zero
            lost[u] += hits - _hits(net.aggregation, ablated, tuple(i for i in active if i != u),
                                    block.labels)
    full = full_correct / len(ids)
    rows = []
    for u in range(net.n_units):
        ablated_accuracy = (full_correct - lost[u]) / len(ids)
        rows.append(UnitContribution(unit_index=u, full_accuracy=full,
                                     ablated_accuracy=ablated_accuracy,
                                     contribution=full - ablated_accuracy))
    return ContributionReport(rows=tuple(rows))


def network_to_dict(net: ModularNetwork) -> dict:
    if isinstance(net.aggregation, LinearReadout):
        agg = {"kind": "linear-readout", "weights": list(net.aggregation.weights),
               "bias": net.aggregation.bias}
    else:
        agg = {"kind": ROUTER_MEAN}
    return {"version": ARTIFACT_VERSION, "units": [unit_to_dict(u) for u in net.units],
            "switch": net.switch.to_json(), "aggregation": agg}


def network_from_dict(obj: dict) -> ModularNetwork:
    agg = obj["aggregation"]
    if agg["kind"] == "linear-readout":
        values = floats([*agg["weights"], agg["bias"]], "readout weights and bias")
        aggregation = LinearReadout(weights=values[:-1], bias=values[-1])
    elif agg["kind"] == ROUTER_MEAN:
        aggregation = ROUTER_MEAN
    else:
        raise NetworkError(f"aggregation kind must be one of {AGGREGATIONS}, got {agg['kind']!r}")
    return ModularNetwork(units=tuple(unit_from_dict(u) for u in obj["units"]),
                          switch=SwitchTable.from_json(obj["switch"]),
                          aggregation=aggregation)


def save_network(net: ModularNetwork, path) -> None:
    write_json(network_to_dict(net), path)


def load_network(path) -> ModularNetwork:
    return read_input(path, "network bundle", network_from_dict)
