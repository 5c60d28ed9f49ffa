"""Assembled network: trained units behind a switch, with gated evaluation.

The forward pass computes only the units the switch activates; inactive units
are skipped entirely, so their gated activation is exactly 0.0 and their
parameters are never read. The probe pass forces every switch open and is the
basis for heatmap analysis.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import ARTIFACT_VERSION
from .data import Dataset, Observation
from .errors import NetworkError
from .jsonio import read_json, write_json
from .neuron import (NeuronUnit, TrainConfig, _loss_from_z, _sigmoid, unit_forward,
                     unit_from_dict, unit_to_dict)
from .seeding import rng_for
from .switching import ActivationMask, SwitchTable, route

ROUTER_MEAN = "router-mean"
SET_KINDS = ("overlapping", "non-overlapping")


@dataclass(frozen=True)
class LinearReadout:
    weights: tuple[float, ...]
    bias: float = 0.0


@dataclass(frozen=True)
class ModularNetwork:
    units: tuple[NeuronUnit, ...]
    switch: SwitchTable
    aggregation: "str | LinearReadout" = ROUTER_MEAN

    def __post_init__(self):
        if not self.units:
            raise NetworkError("a network needs at least one unit")
        if self.switch.n_units != len(self.units):
            raise NetworkError(f"switch expects {self.switch.n_units} units, got {len(self.units)}")
        dim = self.units[0].dim
        for pos, unit in enumerate(self.units):
            if unit.dim != dim:
                raise NetworkError(f"unit {unit.unit_index} has dim {unit.dim}, expected {dim}")
            if unit.unit_index != pos:
                raise NetworkError(f"unit at position {pos} carries index {unit.unit_index}")
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
    active_mask: ActivationMask
    gated_activations: tuple[float, ...]
    note: "str | None" = None


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


def _gated_prediction(net: ModularNetwork, x, mask: ActivationMask) -> Prediction:
    gated = [0.0] * net.n_units
    active = mask.active_indices()
    for i in active:
        gated[i] = unit_forward(net.units[i], x)
    note = None
    if isinstance(net.aggregation, LinearReadout):
        z = sum(v * a for v, a in zip(net.aggregation.weights, gated)) + net.aggregation.bias
        score = _sigmoid(z)
    elif active:
        score = sum(gated[i] for i in active) / len(active)
    else:
        score = 0.5
        note = "empty-active-set"
    return Prediction(score=float(score), predicted_label=1 if score >= 0.5 else 0,
                      active_mask=mask, gated_activations=tuple(gated), note=note)


def forward(net: ModularNetwork, obs: Observation) -> Prediction:
    """Switch-gated prediction for one observation."""
    if len(obs.features) != net.dim:
        raise NetworkError(f"observation {obs.id} has {len(obs.features)} features, expected {net.dim}")
    return _gated_prediction(net, obs.features, route(net.switch, obs.group))


def probe_activations(net: ModularNetwork, obs: Observation) -> tuple[float, ...]:
    """Ungated activation of every unit on the observation (all switches forced open)."""
    if len(obs.features) != net.dim:
        raise NetworkError(f"observation {obs.id} has {len(obs.features)} features, expected {net.dim}")
    return tuple(unit_forward(unit, obs.features) for unit in net.units)


def _predictions(net: ModularNetwork, ids, dataset: Dataset, disabled=None):
    for obs_id in ids:
        obs = dataset.observation(obs_id)
        mask = route(net.switch, obs.group)
        if disabled is not None:
            mask = mask.without(disabled)
        yield obs, _gated_prediction(net, obs.features, mask)


def evaluate(net: ModularNetwork, ids, dataset: Dataset, set_kind: str) -> Metrics:
    """Accuracy and per-group accuracy of gated predictions over the id list."""
    ids = tuple(ids)
    if not ids:
        raise NetworkError("evaluate needs at least one observation id")
    if set_kind not in SET_KINDS:
        raise NetworkError(f"set_kind must be one of {SET_KINDS}, got {set_kind!r}")
    correct = 0
    group_n = {}
    group_correct = {}
    for obs, pred in _predictions(net, ids, dataset):
        hit = int(pred.predicted_label == obs.label)
        correct += hit
        group_n[obs.group] = group_n.get(obs.group, 0) + 1
        group_correct[obs.group] = group_correct.get(obs.group, 0) + hit
    per_group = {g: group_correct[g] / group_n[g] for g in sorted(group_n)}
    return Metrics(accuracy=correct / len(ids), per_group_accuracy=per_group,
                   n=len(ids), set_kind=set_kind)


def fit_readout(net: ModularNetwork, ids, dataset: Dataset, config: TrainConfig) -> ModularNetwork:
    """Fit the linear readout on gated activation vectors; units stay frozen.

    Stochastic gradient descent matching the unit trainer's regimen, epoch
    order drawn from the (config.seed, "readout", epoch) stream.
    """
    if not isinstance(net.aggregation, LinearReadout):
        raise NetworkError("fit_readout requires linear-readout aggregation")
    ids = tuple(ids)
    if not ids:
        raise NetworkError("fit_readout needs a non-empty calibration set")
    vectors = []
    labels = []
    for obs, pred in _predictions(net, ids, dataset):
        vectors.append(pred.gated_activations)
        labels.append(float(obs.label))
    xs = np.asarray(vectors, dtype=float)
    ys = np.asarray(labels, dtype=float)
    v = np.asarray(net.aggregation.weights, dtype=float)
    c = net.aggregation.bias
    n = len(ids)
    for epoch in range(config.epochs):
        if config.shuffle:
            order = rng_for(config.seed, "readout", epoch).permutation(n)
        else:
            order = range(n)
        for idx in order:
            a = xs[idx]
            y = ys[idx]
            z = float(v @ a) + c
            if config.loss == "bce":
                dz = _sigmoid(z) - y
            else:
                s = _sigmoid(z)
                dz = 2.0 * (s - y) * s * (1.0 - s)
            v = v - config.learning_rate * dz * a
            c = c - config.learning_rate * dz
            if not (math.isfinite(c) and np.isfinite(v).all()):
                raise NetworkError(f"non-finite readout parameters at epoch {epoch}")
    readout = LinearReadout(weights=tuple(float(x) for x in v), bias=float(c))
    return ModularNetwork(units=net.units, switch=net.switch, aggregation=readout)


def readout_mean_loss(net: ModularNetwork, ids, dataset: Dataset, loss: str = "bce") -> float:
    """Mean readout loss over an id list (diagnostic for calibration runs)."""
    if not isinstance(net.aggregation, LinearReadout):
        raise NetworkError("readout_mean_loss requires linear-readout aggregation")
    total = 0.0
    ids = tuple(ids)
    for obs, pred in _predictions(net, ids, dataset):
        z = sum(v * a for v, a in zip(net.aggregation.weights, pred.gated_activations))
        z += net.aggregation.bias
        total += _loss_from_z(z, obs.label, loss, "sigmoid")
    return total / len(ids)


def neuron_contribution(net: ModularNetwork, ids, dataset: Dataset) -> ContributionReport:
    """Per-unit accuracy contribution: full accuracy minus accuracy with the unit ablated."""
    ids = tuple(ids)
    if not ids:
        raise NetworkError("neuron_contribution needs at least one observation id")

    def accuracy(disabled):
        correct = sum(int(p.predicted_label == o.label)
                      for o, p in _predictions(net, ids, dataset, disabled=disabled))
        return correct / len(ids)

    full = accuracy(None)
    rows = []
    for u in range(net.n_units):
        ablated = accuracy(u)
        rows.append(UnitContribution(unit_index=u, full_accuracy=full,
                                     ablated_accuracy=ablated, contribution=full - ablated))
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
        aggregation = LinearReadout(weights=tuple(float(w) for w in agg["weights"]),
                                    bias=float(agg["bias"]))
    else:
        aggregation = ROUTER_MEAN
    return ModularNetwork(units=tuple(unit_from_dict(u) for u in obj["units"]),
                          switch=SwitchTable.from_json(obj["switch"]),
                          aggregation=aggregation)


def save_network(net: ModularNetwork, path) -> None:
    write_json(network_to_dict(net), path)


def load_network(path) -> ModularNetwork:
    return network_from_dict(read_json(Path(path)))
