"""Single-node perceptron units and their isolated gradient-descent trainer.

A unit is a standalone micro-model: weight vector, bias, activation. Training
touches only the given unit's parameters; nothing is shared across units.
The finite-difference gradient is the verification oracle for the analytic one.
Training and readout fitting share one scalar kernel (`_z`, `_loss_dz`,
`_sgd`) on Python floats, and inference runs the same `_z` over numpy float64
columns, so no bit depends on the BLAS build. `_sgd` checks finiteness once
per epoch; an epoch that ends non-finite is replayed from its start with a
check after every step, which names the faulty step.
"""

import math
from dataclasses import dataclass

from .errors import TrainingError
from .jsonio import is_int, is_number, write_json
from .seeding import rng_for

ACTIVATIONS = ("sigmoid", "relu", "tanh")
LOSSES = ("mse", "bce")


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _activate(kind: str, z: float) -> float:
    if kind == "sigmoid":
        return _sigmoid(z)
    if kind == "relu":
        return z if z > 0 else 0.0
    return math.tanh(z)


def _z(weights, bias: float, x) -> float:
    """Pre-activation w.x + b, summed left to right."""
    z = 0.0
    for w, xi in zip(weights, x):
        z += w * xi
    return z + bias


def _loss_dz(activation: str, loss: str, z: float, y) -> tuple[float, float]:
    """(loss, d loss / d z) at pre-activation z; the one copy of both formulas.

    bce takes one exp(-|z|) for the logit-form loss and the sigmoid; mse takes
    the activation once for the difference and the derivative.
    """
    if loss == "bce":
        e = math.exp(-abs(z))
        s = 1.0 / (1.0 + e) if z >= 0 else e / (1.0 + e)  # _sigmoid(z), same bits
        # logit form of -[y log(s) + (1-y) log(1-s)]; finite for any float z
        return max(z, 0.0) - z * y + math.log1p(e), s - y  # canonical bce+sigmoid gradient
    a = _activate(activation, z)
    if activation == "sigmoid":
        prime = a * (1.0 - a)
    elif activation == "relu":
        prime = 1.0 if z > 0 else 0.0  # derivative at exactly 0 defined as 0
    else:
        prime = 1.0 - a * a
    diff = a - y
    # not diff**2: squared overflow must yield inf, not OverflowError
    return diff * diff, 2.0 * diff * prime


def _check_pair(activation: str, loss: str) -> None:
    if activation not in ACTIVATIONS:
        raise TrainingError(f"unknown activation {activation!r}")
    if loss not in LOSSES:
        raise TrainingError(f"unknown loss {loss!r}")
    if loss == "bce" and activation != "sigmoid":
        raise TrainingError(f"bce loss is only defined with sigmoid units, got {activation!r}")


@dataclass(frozen=True)
class NeuronUnit:
    unit_index: int
    activation: str
    weights: tuple[float, ...]
    bias: float

    def __post_init__(self):
        if not is_int(self.unit_index):
            raise TrainingError(f"unit_index must be an integer, got {self.unit_index!r}")
        if self.activation not in ACTIVATIONS:
            raise TrainingError(f"unknown activation {self.activation!r}")

    @property
    def dim(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 50
    loss: str = "bce"
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        rate = self.learning_rate
        if not is_number(rate) or not 0 < rate < math.inf:
            raise TrainingError(f"learning_rate must be a finite number > 0, got {rate!r}")
        if not is_int(self.epochs) or self.epochs < 1:
            raise TrainingError(f"epochs must be an integer >= 1, got {self.epochs!r}")
        if self.loss not in LOSSES:
            raise TrainingError(f"unknown loss {self.loss!r}")
        if not isinstance(self.shuffle, bool):
            raise TrainingError(f"shuffle must be true or false, got {self.shuffle!r}")


@dataclass(frozen=True)
class TrainLog:
    epoch_losses: tuple[float, ...]
    final_loss: float
    steps: int


@dataclass(frozen=True)
class Gradient:
    d_weights: tuple[float, ...]
    d_bias: float


def init_unit(dim: int, activation: str, unit_index: int, seed: int) -> NeuronUnit:
    """Fresh unit: weights uniform in [-0.5, 0.5] from the (seed, unit_index) stream, bias 0."""
    if dim < 1:
        raise TrainingError(f"unit dimension must be >= 1, got {dim}")
    weights = rng_for(seed, unit_index).uniform(-0.5, 0.5, size=dim)
    return NeuronUnit(unit_index=unit_index, activation=activation,
                      weights=tuple(float(w) for w in weights), bias=0.0)


def _preactivation(unit: NeuronUnit, x) -> float:
    if len(x) != unit.dim:
        raise TrainingError(f"unit {unit.unit_index} expects {unit.dim} features, got {len(x)}")
    return _z(unit.weights, unit.bias, x)


def unit_forward(unit: NeuronUnit, x) -> float:
    """Activation value act(w.x + b); pure."""
    return _activate(unit.activation, _preactivation(unit, x))


def unit_gradient(unit: NeuronUnit, x, y: int, loss: str) -> Gradient:
    """Analytic gradient of loss(act(w.x + b), y) with respect to (w, b)."""
    _check_pair(unit.activation, loss)
    _, dz = _loss_dz(unit.activation, loss, _preactivation(unit, x), y)
    return Gradient(d_weights=tuple(float(dz * xi) for xi in x), d_bias=float(dz))


def fd_gradient(unit: NeuronUnit, x, y: int, loss: str, h: float = 1e-5) -> Gradient:
    """Central-difference gradient; the verification oracle for unit_gradient.

    Unreliable at the relu kink (|w.x + b| comparable to h); callers exclude
    that neighborhood.
    """
    _check_pair(unit.activation, loss)
    if h <= 0:
        raise TrainingError(f"fd step must be > 0, got {h}")
    if len(x) != unit.dim:
        raise TrainingError(f"unit {unit.unit_index} expects {unit.dim} features, got {len(x)}")

    def loss_at(weights, bias):
        return _loss_dz(unit.activation, loss, _z(weights, bias, x), y)[0]

    d_weights = []
    base = list(unit.weights)
    for i in range(unit.dim):
        up, down = list(base), list(base)
        up[i] += h
        down[i] -= h
        d_weights.append((loss_at(up, unit.bias) - loss_at(down, unit.bias)) / (2 * h))
    d_bias = (loss_at(base, unit.bias + h) - loss_at(base, unit.bias - h)) / (2 * h)
    return Gradient(d_weights=tuple(d_weights), d_bias=d_bias)


def _sgd(weights, bias: float, rows, activation: str, config: TrainConfig, stream):
    """SGD over (x, y) rows, one update per row; returns (weights, bias, epoch_losses).

    When shuffling, epoch e visits the rows in the e-th `permutation(n)` of the
    one generator `rng_for(config.seed, "shuffle", stream)`.

    Finiteness is checked once per epoch, on the epoch's loss total and its
    final bias and weights. An epoch that ends non-finite is replayed from its
    start with a check after every step (`_replay_epoch`), which raises the
    TrainingError naming the first faulty step.
    """
    weights = list(weights)
    n = len(rows)
    lr = config.learning_rate
    loss_kind = config.loss
    epoch_losses = []
    shuffler = rng_for(config.seed, "shuffle", stream)
    for epoch in range(config.epochs):
        order = shuffler.permutation(n).tolist() if config.shuffle else range(n)
        start_weights, start_bias = weights, bias
        total = 0.0
        for idx in order:
            x, y = rows[idx]
            loss, dz = _loss_dz(activation, loss_kind, _z(weights, bias, x), y)
            g = lr * dz
            weights = [w - g * xi for w, xi in zip(weights, x)]
            bias = bias - g
            total += loss
        # One check finds every faulty step of the epoch: every loss is >= 0 (or
        # nan), under + and - an inf or nan never turns finite again, and no step
        # can raise (exp only gets arguments <= 0 or nan, then log1p, then
        # comparisons). So an epoch that ends finite had no faulty step. A total
        # that overflowed from finite losses is no fault: the replay returns.
        if not (math.isfinite(total) and math.isfinite(bias) and all(map(math.isfinite, weights))):
            _replay_epoch(epoch, start_weights, start_bias, rows, order, activation, config)
        epoch_losses.append(total / n)
    return weights, bias, epoch_losses


def _replay_epoch(epoch: int, weights, bias: float, rows, order, activation: str,
                  config: TrainConfig) -> None:
    """Run epoch `epoch` again from its start, checking after every step; raise at the first fault."""
    lr = config.learning_rate
    for step, idx in enumerate(order):
        x, y = rows[idx]
        loss, dz = _loss_dz(activation, config.loss, _z(weights, bias, x), y)
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite loss at epoch {epoch} step {step}")
        g = lr * dz
        weights = [w - g * xi for w, xi in zip(weights, x)]
        bias = bias - g
        if not (math.isfinite(bias) and all(map(math.isfinite, weights))):
            raise TrainingError(f"non-finite parameters at epoch {epoch} step {step}")


def train_unit(unit: NeuronUnit, subset, config: TrainConfig) -> tuple[NeuronUnit, TrainLog]:
    """Isolated SGD over the unit's own subset (a `data.Dataset`, visited in row
    order), epoch orders from the unit's one shuffle stream,
    `rng_for(config.seed, "shuffle", unit.unit_index)`.

    Reads and writes nothing outside the given unit; deterministic in all inputs.
    """
    if not len(subset):
        raise TrainingError(f"unit {unit.unit_index}: empty training subset")
    _check_pair(unit.activation, config.loss)
    if subset.dim != unit.dim:
        raise TrainingError(f"unit {unit.unit_index}: subset has {subset.dim} features per "
                            f"observation, expected {unit.dim}")
    rows = list(zip(subset.features.tolist(), subset.labels.tolist()))
    try:
        weights, bias, epoch_losses = _sgd(unit.weights, unit.bias, rows, unit.activation,
                                           config, unit.unit_index)
    except TrainingError as exc:
        raise TrainingError(f"unit {unit.unit_index}: {exc}") from None
    trained = NeuronUnit(unit_index=unit.unit_index, activation=unit.activation,
                         weights=tuple(weights), bias=bias)
    log = TrainLog(epoch_losses=tuple(epoch_losses), final_loss=epoch_losses[-1],
                   steps=config.epochs * len(rows))
    return trained, log


def unit_to_dict(unit: NeuronUnit) -> dict:
    return {"unit_index": unit.unit_index, "activation": unit.activation,
            "weights": list(unit.weights), "bias": unit.bias}


def unit_from_dict(obj: dict) -> NeuronUnit:
    weights, bias = list(obj["weights"]), obj["bias"]
    if not all(map(is_number, weights + [bias])):
        raise TrainingError(f"unit {obj['unit_index']!r}: weights and bias must be JSON numbers, "
                            f"got {weights} and {bias!r}")
    return NeuronUnit(unit_index=obj["unit_index"], activation=obj["activation"],
                      weights=tuple(map(float, weights)), bias=float(bias))


def save_unit(unit: NeuronUnit, path) -> None:
    write_json(unit_to_dict(unit), path)
