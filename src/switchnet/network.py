"""Assembled network: trained units behind a switch, with gated evaluation.

The switch routes each group to its active units; inactive units are skipped
entirely, so their gated activation is exactly 0.0 and their parameters are
never read. Every pass over an id list walks it by group block through one
per-block forward, `_gated_blocks`. A block is one index gather from the
dataset's columns (the id list's rows of one group, in id-list order), and its
(unit, row) activations come from one call of `neuron._unit_table`: the active
units alone on the gated path, or every unit when the heatmap's probes are
wanted, the gated columns then being the probe table's active rows. Every
value equals `unit_forward` on one observation bit for bit, as the router mean
equals `_mean`. `forward` is a one-row block. `_pass`, the one walk that
scores an id list, serves evaluation, ablation, the heatmap and `readings`:
its `_Tally` counts a block's hits, re-scores it once per active unit and
keeps the block's reduced probes.

Scoring reads the active units alone: no column is built for an inactive
unit, and a readout's slots are exactly its active units. `LinearReadout`
holds finite weights, none of them -0.0, so an inactive unit's term
`w * 0.0` is +-0.0 and changes no bit of a sum begun from 0.0. Its logit
(`_logit_column`) is `_z` over the active units' weights and columns, the
same bits as `_z` over the whole gated vector, so an ablation re-scores a
block's remaining units; `fit_readout` trains on the same units' rows
(`neuron._slot_epoch_for`) with the dense SGD's bits.

A readout's label needs no sigmoid wherever the logit's sign decides it:
`_label_column` labels a row 1 where its logit is >= 0 (there
`1 / (1 + exp(-z))` is >= 0.5), and 0 where it is NaN or at most -1e-6 (there
the sigmoid is at most about 0.49999975). Only logits in (-1e-6, 0) go
through the sigmoid, since rounding takes some of them, the ones within about
1.1e-16 of 0, to a score of exactly 0.5. So every label is the one the scalar
pass's score gives.
"""

from dataclasses import dataclass

import numpy as np

from ._version import ARTIFACT_VERSION
from .data import Dataset, Observation
from .errors import NetworkError, TrainingError
from .jsonio import floats, read_input, write_json
from .neuron import NeuronUnit, TrainConfig, _sgd, _sigmoid_column, _unit_table, _z, unit_from_dict, unit_to_dict
# Unused here, but the benchmark's tracer counts calls through this name: keep it bound.
from .neuron import unit_forward  # noqa: F401
from .switching import SwitchTable, route

ROUTER_MEAN = "router-mean"
AGGREGATIONS = (ROUTER_MEAN, "linear-readout")
SET_KINDS = ("overlapping", "non-overlapping")


@dataclass(frozen=True)
class LinearReadout:
    """A sigmoid over the gated vector. Its weights and bias are finite floats
    (`floats` refuses anything else) and a weight of -0.0 is stored as 0.0."""
    weights: tuple[float, ...]
    bias: float = 0.0

    def __post_init__(self):
        *weights, bias = floats([*self.weights, self.bias], "readout weights and bias")
        object.__setattr__(self, "weights", tuple(w + 0.0 for w in weights))
        object.__setattr__(self, "bias", bias)


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
def _logit_column(readout: LinearReadout, columns, active, n: int) -> np.ndarray:
    """The readout's logit over the gated vector of every row, bit for bit: `_z`
    over the active units' weights and columns, in ascending order; with none
    active, `0.0 + bias` on each of the n rows."""
    z = _z([readout.weights[i] for i in active], readout.bias, [columns[i] for i in active])
    return z if active else np.full(n, z)


@np.errstate(all="ignore")
def _score_column(aggregation, columns, active, n: int) -> np.ndarray:
    """Score of every row of a block of gated columns: the readout's sigmoid of
    its logit (`_logit_column`), or the left-to-right mean of the active slots
    (0.5 when none is active). Only the active slots' columns are read."""
    if isinstance(aggregation, LinearReadout):
        return _sigmoid_column(_logit_column(aggregation, columns, active, n))
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
    z = _logit_column(aggregation, columns, active, n)
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


def _gated_columns(net: ModularNetwork, active, features: np.ndarray, probes=None):
    """The active units' activation columns over a (rows, dim) feature array,
    indexed by unit: `columns[i]` for each active i. That is `probes` itself,
    every unit's table over these rows, when it is given; else a dict from each
    active unit to its column, the kernel run on the active units alone, so an
    inactive unit is never read. Every reader takes the active units' columns
    alone: an inactive slot's gated value is 0.0, and no column holds it."""
    if probes is not None:
        return probes
    return dict(zip(active, _unit_table([net.units[i] for i in active], features))) if active else {}


def _gated_blocks(net: ModularNetwork, ids, dataset: Dataset, probe: bool = False):
    """The one per-block forward: for each group block of the id list, a
    (block, active units, gated columns, probes) tuple, `route` run once per
    block. With `probe`, `probes` is every unit's (unit, row) table from one
    kernel call and the gated columns are its active rows; else it is None and
    only the active units are computed. A generator, so a block's tables die
    with the block."""
    for block in _group_blocks(net, ids, dataset):
        active = route(net.switch, block.group)
        probes = _unit_table(net.units, block.features) if probe else None
        yield block, active, _gated_columns(net, active, block.features, probes), probes


class _Tally:
    """Hits of the gated predictions per group block, the hits each unit's
    ablation loses (when ablating) and each group's reduced probes (`stats`).

    Ablating unit u changes only the blocks where u is active; each is
    re-scored once with u out of the active set, so its column is not read.
    """

    def __init__(self, net: ModularNetwork, ablate: bool):
        self.aggregation = net.aggregation
        self.group_n = {}
        self.group_correct = {}
        self.lost = [0] * net.n_units if ablate else None
        self.stats = {}

    def add(self, block: _Block, active, columns) -> None:
        hits = _hits(self.aggregation, columns, active, block.labels)
        self.group_n[block.group] = len(block.positions)
        self.group_correct[block.group] = hits
        if self.lost is None:
            return
        for u in active:
            self.lost[u] += hits - _hits(self.aggregation, columns, tuple(i for i in active if i != u),
                                         block.labels)

    def metrics(self, set_kind: str) -> Metrics:
        n = sum(self.group_n.values())
        per_group = {g: self.group_correct[g] / self.group_n[g] for g in sorted(self.group_n)}
        return Metrics(accuracy=sum(self.group_correct.values()) / n, per_group_accuracy=per_group,
                       n=n, set_kind=set_kind)

    def contribution(self) -> ContributionReport:
        n = sum(self.group_n.values())
        correct = sum(self.group_correct.values())
        full = correct / n
        rows = []
        for u, lost in enumerate(self.lost):
            ablated_accuracy = (correct - lost) / n
            rows.append(UnitContribution(unit_index=u, full_accuracy=full,
                                         ablated_accuracy=ablated_accuracy,
                                         contribution=full - ablated_accuracy))
        return ContributionReport(rows=tuple(rows))


def _pass(net: ModularNetwork, ids, dataset: Dataset, ablate: bool, reduce=None) -> _Tally:
    """The one walk over an id list's group blocks. Given `reduce`, every unit
    is probed on each block and `stats[group]` is `reduce(probes)`; else only
    the active units are computed."""
    tally = _Tally(net, ablate)
    for block, active, columns, probes in _gated_blocks(net, ids, dataset, probe=reduce is not None):
        tally.add(block, active, columns)
        if probes is not None:
            tally.stats[block.group] = reduce(probes)
    return tally


def forward(net: ModularNetwork, obs: Observation) -> Prediction:
    """Switch-gated prediction for one observation: a one-row block."""
    if len(obs.features) != net.dim:
        raise NetworkError(f"observation {obs.id} has {len(obs.features)} features, expected {net.dim}")
    active = route(net.switch, obs.group)
    columns = _gated_columns(net, active, np.array([obs.features], dtype=float))
    score = _score_column(net.aggregation, columns, active, 1).item()
    return Prediction(score=score, predicted_label=int(score >= 0.5),
                      active=active,
                      gated_activations=tuple(columns[i].item() if i in active else 0.0
                                              for i in range(net.n_units)))


def _check_evaluation(ids: tuple, set_kind: str) -> None:
    """The id list and set kind `evaluate` takes."""
    if not ids:
        raise NetworkError("evaluate needs at least one observation id")
    if set_kind not in SET_KINDS:
        raise NetworkError(f"set_kind must be one of {SET_KINDS}, got {set_kind!r}")


def evaluate(net: ModularNetwork, ids, dataset: Dataset, set_kind: str) -> Metrics:
    """Accuracy and per-group accuracy of gated predictions over the id list."""
    ids = tuple(ids)
    _check_evaluation(ids, set_kind)
    return _pass(net, ids, dataset, ablate=False).metrics(set_kind)


def fit_readout(net: ModularNetwork, ids, dataset: Dataset, config: TrainConfig) -> ModularNetwork:
    """Fit the linear readout on gated activation vectors; units stay frozen.

    The readout is a sigmoid unit over the gated vector, trained by the unit
    trainer's SGD; its epoch orders come from the one shuffle stream
    `rng_for(config.seed, "shuffle", "readout")`.

    Each calibration row holds its active units alone, as one active-slot row
    (`neuron._slot_epoch_for`): the unit indices, then their gated values,
    then the label, padded to the widest row by slots of index n (one past the
    last unit) and value 0.0, whose scratch weight w[n] is dropped after the
    fit. A step then costs the row's active units, and the fit gives the dense
    SGD's bits over the gated vectors: an inactive unit's weight is finite and
    not -0.0, so the dense update `w - g * 0.0` leaves it as it is for every
    finite g and no such update gives -0.0; an epoch that ends non-finite is
    replayed to name its first faulty step, the dense SGD's, since a finite
    step changes no weight left out.
    """
    if not isinstance(net.aggregation, LinearReadout):
        raise NetworkError("fit_readout requires linear-readout aggregation")
    ids = tuple(ids)
    if not ids:
        raise NetworkError("fit_readout needs a non-empty calibration set")
    start = net.aggregation
    n = net.n_units
    blocks = []
    for block, active, columns, _ in _gated_blocks(net, ids, dataset):
        values = (np.column_stack([columns[i] for i in active]).tolist() if active
                  else [()] * len(block.positions))
        blocks.append((block.positions.tolist(), active, values, block.labels.astype(float).tolist()))
    width = max(1, max(len(slots) for _, slots, _, _ in blocks))
    rows = [None] * len(ids)
    for positions, slots, values, labels in blocks:
        pad = width - len(slots)
        indices, zeros = (*slots, *(n,) * pad), (0.0,) * pad
        for position, vector, label in zip(positions, values, labels):
            rows[position] = (*indices, *vector, *zeros, label)
    try:
        weights, bias, _ = _sgd([*start.weights, 0.0], start.bias, rows, "sigmoid", config, "readout",
                                slots=width)
    except TrainingError as exc:
        raise NetworkError(f"readout: {exc}") from None
    readout = LinearReadout(weights=tuple(weights[:n]), bias=bias)
    return ModularNetwork(units=net.units, switch=net.switch, aggregation=readout)


def neuron_contribution(net: ModularNetwork, ids, dataset: Dataset) -> ContributionReport:
    """Per-unit accuracy contribution: full accuracy minus accuracy with the unit
    ablated, each ablated block re-scored once (`_Tally`)."""
    ids = tuple(ids)
    if not ids:
        raise NetworkError("neuron_contribution needs at least one observation id")
    return _pass(net, ids, dataset, ablate=True).contribution()


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
        aggregation = LinearReadout(weights=tuple(agg["weights"]), bias=agg["bias"])
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
