"""Single-node perceptron units and their isolated gradient-descent trainer.

A unit is a standalone micro-model: weight vector, bias, activation. Training
touches only the given unit's parameters; nothing is shared across units.
Training and readout fitting share one SGD trainer (`_sgd`) on Python floats.
Its fits are generated from one source template (`_generate`), each a
function that runs every epoch of a fit in one call: one per (input width,
activation, loss) for flat dense rows (`_epoch_for`), and one per (slot count,
loss) for the sigmoid readout's active-slot rows (`_slot_epoch_for`), which
read and write only each row's slots' weights. Each sums `w.x + b` left to
right from 0.0 as `_z` does and computes the loss and gradient inline from the
pair's snippet in `_LOSS_SNIPPETS`, the one copy of both formulas, so a step
makes no Python-level call. `_generate` is the one place a snippet is
compiled, and the generated functions are the only SGD steps: the gradient
checks read their gradients off one step of a dense one.

A fit's epoch orders come from one `permuted` draw per block of epochs
(`_orders`). The generated function checks finiteness at each epoch's end and
returns at the first epoch that ends non-finite; `_replay_epoch` reruns that
epoch, dense or active-slot, through the same function, one row per call and
checked each, to name the faulty step.

Inference runs `_z` over numpy float64 columns, so no bit depends on the BLAS
build: the column kernel `_unit_table` takes a block's (units, rows)
pre-activations from one `_z` broadcast, and a readout's logit is `_z` too.
The column activations follow `_activate` branch for branch, with `exp` and
`tanh` on `math`: each reads a column one Python float at a time through a
`memoryview` and fills its result through `np.fromiter`, so no list of a
whole table's values is built on either side.
"""

import functools
import itertools
import math
import textwrap
from dataclasses import dataclass

import numpy as np

from .errors import TrainingError
from .jsonio import floats, is_finite, is_int, write_json
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
    """Pre-activation w.x + b, summed left to right from 0.0: on Python floats, or
    elementwise on numpy float64 arrays that broadcast, term by term in the same order."""
    z = 0.0
    for w, xi in zip(weights, x):
        z += w * xi
    return z + bias


@np.errstate(all="ignore")
def _sigmoid_column(z: np.ndarray) -> np.ndarray:
    """`_sigmoid` elementwise; exp stays on `math`, since `np.exp` is not bit-identical.
    Both branches divide into `e` in place: a block-sized table allocates no buffer per branch."""
    e = np.fromiter(map(math.exp, memoryview(-np.abs(z))), float, count=len(z))
    d = 1.0 + e
    np.divide(e, d, out=e)  # e / (1 + e) where z < 0
    np.divide(1.0, d, out=e, where=z >= 0)  # 1 / (1 + e) where z >= 0
    return e


def _activate_column(kind: str, z: np.ndarray) -> np.ndarray:
    """`_activate` elementwise, branch for branch."""
    if kind == "sigmoid":
        return _sigmoid_column(z)
    if kind == "relu":
        return np.where(z > 0, z, 0.0)
    return np.fromiter(map(math.tanh, memoryview(z)), float, count=len(z))


@np.errstate(all="ignore")  # overflow and nan as Python floats give them, without warnings
def _unit_table(units, features: np.ndarray) -> np.ndarray:
    """`unit_forward` of each unit on every row of a (rows, dim) feature array,
    as one (units, rows) table, bit for bit: one `_z` over the (dim, units, 1)
    weights and the (dim, rows) features, then each distinct activation once
    over its units' flattened rows, so every unit keeps its own."""
    weights = np.array([unit.weights for unit in units], dtype=float)
    z = _z(weights.T[:, :, None], np.array([[unit.bias] for unit in units], dtype=float), features.T)
    kinds = [unit.activation for unit in units]
    for kind in dict.fromkeys(kinds):
        rows = [k for k, other in enumerate(kinds) if other == kind]
        if len(rows) == len(kinds):
            rows = slice(None)  # one activation: the whole table, not a gathered copy of it
        table = z[rows]
        z[rows] = _activate_column(kind, table.ravel()).reshape(table.shape)
    return z


# One snippet per (activation, loss) pair the trainer accepts, the one copy of
# both formulas: it sets `loss` and `dz` (d loss / d z) from the pre-activation
# `z` and the label `y`, calling only `exp`, `log1p` and `tanh`. `_epoch_for`
# writes it into the generated epoch's loop body, the one place it is compiled.
# bce branches once on the sign of z and takes one exp, the same bits as
# exp(-|z|), max(z, 0.0) and `_sigmoid`'s two branches; the loss is the logit
# form of -[y log(s) + (1-y) log(1-s)], finite for any float z, and dz the
# canonical bce+sigmoid gradient s - y. mse squares the difference by one
# multiplication, not diff**2, so an overflow yields inf, not OverflowError,
# and the relu derivative at exactly 0 is 0. z is compared with 0.0, not 0, and
# the trainer's callers pass float labels, so each operation is float with
# float, which the interpreter runs faster, with the bits of int 0 and labels.
_LOSS_SNIPPETS = {
    ("sigmoid", "bce"): """\
if z >= 0.0:
    e = exp(-z)
    loss = z - z * y + log1p(e)
    dz = 1.0 / (1.0 + e) - y
else:
    e = exp(z)
    loss = 0.0 - z * y + log1p(e)
    dz = e / (1.0 + e) - y
""",
    ("sigmoid", "mse"): """\
if z >= 0.0:
    a = 1.0 / (1.0 + exp(-z))
else:
    e = exp(z)
    a = e / (1.0 + e)
diff = a - y
loss = diff * diff
dz = 2.0 * diff * (a * (1.0 - a))
""",
    ("tanh", "mse"): """\
a = tanh(z)
diff = a - y
loss = diff * diff
dz = 2.0 * diff * (1.0 - a * a)
""",
    ("relu", "mse"): """\
diff = (z if z > 0.0 else 0.0) - y
loss = diff * diff
dz = 2.0 * diff * (1.0 if z > 0.0 else 0.0)
""",
}


def _check_pair(activation: str, loss: str) -> None:
    """The pair rule alone: `NeuronUnit` and `TrainConfig` own the name checks."""
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
        if not is_finite(rate) or not rate > 0:
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

    def to_json(self) -> dict:
        """The log as a JSON object; each writer adds the index it is keyed by."""
        return {"epoch_losses": list(self.epoch_losses), "epochs": len(self.epoch_losses),
                "final_loss": self.final_loss, "steps": self.steps}


def init_unit(dim: int, activation: str, unit_index: int, seed: int) -> NeuronUnit:
    """Fresh unit: weights uniform in [-0.5, 0.5] from the (seed, unit_index) stream, bias 0."""
    if dim < 1:
        raise TrainingError(f"unit dimension must be >= 1, got {dim}")
    weights = rng_for(seed, unit_index).uniform(-0.5, 0.5, size=dim)
    return NeuronUnit(unit_index=unit_index, activation=activation,
                      weights=tuple(float(w) for w in weights), bias=0.0)


def unit_forward(unit: NeuronUnit, x) -> float:
    """Activation value act(w.x + b); pure."""
    if len(x) != unit.dim:
        raise TrainingError(f"unit {unit.unit_index} expects {unit.dim} features, got {len(x)}")
    return _activate(unit.activation, _z(unit.weights, unit.bias, x))


# Every SGD epoch of one fit, the body both generated forms share: `{params}`
# binds the weights, `{row}` unpacks one row into its values x0, x1, ... and
# the label y, and `{snapshot}` is a new list of the current weights;
# `_generate` writes in the expression that reads and writes each value's
# weight. `z` starts from `0.0 +` as `_z` does, so a -0.0 product still gives
# 0.0. Sequential statements, not one nested expression, so no width reaches the
# parser's nesting limit. The loss and gradient are the pair's snippet, written
# into the loop body, so a step makes no Python-level call beyond the snippet's
# math functions. Only integer indices, names and the snippets are interpolated.
#
# Each epoch ends with one finiteness check, on its loss total, bias and
# weights. It finds every faulty step of the epoch: every loss is >= 0 (or nan),
# under + and - an inf or nan never turns finite again, and no step can raise
# (exp only gets arguments <= 0 or nan, then log1p, then comparisons). So an
# epoch that ends finite had no faulty step. At the first epoch that ends
# non-finite the function returns, with that epoch's start weights, start bias
# and order beside its end state, so the caller can replay it.
_EPOCHS_TEMPLATE = """\
def epochs(weights, bias, rows, orders, lr):
    {params}
    start, start_bias = weights, bias
    totals = []
    for order in orders:
        total = 0.0
        for idx in order:
            {row} = rows[idx]
{sum}
            z += bias
{loss}
            g = lr * dz
{update}
            bias = bias - g
            total += loss
        end = {snapshot}
        totals.append(total)
        if not (isfinite(total) and isfinite(bias) and all(map(isfinite, end))):
            return end, bias, totals, (start, start_bias, order)
        start, start_bias = end, bias
    return start, start_bias, totals, None
"""


def _generate(name: str, activation: str, loss: str, weights, params: str, row: str, snapshot: str):
    """Compile `_EPOCHS_TEMPLATE` with weight i read and written as `weights[i]`:
    the one place a loss snippet is compiled."""
    source = _EPOCHS_TEMPLATE.format(
        params=params, row=row, snapshot=snapshot,
        sum="\n".join([f"            z = 0.0 + {weights[0]} * x0"]
                      + [f"            z += {w} * x{i}" for i, w in enumerate(weights) if i]),
        loss=textwrap.indent(_LOSS_SNIPPETS[activation, loss], " " * 12).rstrip("\n"),
        update="\n".join(f"            {w} = {w} - g * x{i}" for i, w in enumerate(weights)))
    namespace = {"exp": math.exp, "log1p": math.log1p, "tanh": math.tanh, "isfinite": math.isfinite}
    exec(compile(source, f"<sgd epoch, {name}, {activation}/{loss}>", "exec"), namespace)
    return namespace["epochs"]


@functools.cache
def _epoch_for(d: int, activation: str, loss: str):
    """The SGD epochs for flat rows `(x0, ..., x{d-1}, y)` of width d >= 1 under
    an accepted (activation, loss) pair, compiled on first use and cached, the
    weights unpacked to locals w0..w{d-1}.

    `epochs(weights, bias, rows, orders, lr)` runs one epoch per order it takes
    from `orders` and returns `(weights, bias, totals, fault)`: the weights (a
    list) and bias after the last epoch it ran, each epoch's loss total, and
    None, or, when that last epoch ended non-finite, its start weights, start
    bias and order.

    Compiling costs about 0.2 ms at width 2, 4 ms at width 300 and 0.45 s at
    width 20,000 (2-vCPU Intel Xeon, Python 3.11.7), once per (width,
    activation, loss) per process.
    """
    w = [f"w{i}" for i in range(d)]
    x = ", ".join(f"x{i}" for i in range(d))
    return _generate(f"width {d}", activation, loss, w, params=f"{', '.join(w)}, = weights",
                     row=f"{x}, y", snapshot=f"[{', '.join(w)}]")


@functools.cache
def _slot_epoch_for(k: int, loss: str):
    """The sigmoid readout's active-slot epochs for rows of k >= 1 slots, compiled
    on first use and cached. A row is one flat tuple `(j0, ..., j{k-1}, x0, ...,
    x{k-1}, y)`: the indices of the weights its values meet, the values, the
    label. The function reads and writes `w[j]` of a copy of the weights, so a
    step costs k slots, not the weights' width; it takes and returns what
    `_epoch_for`'s does."""
    j = ", ".join(f"j{i}" for i in range(k))
    x = ", ".join(f"x{i}" for i in range(k))
    return _generate(f"{k} slots", "sigmoid", loss, [f"w[j{i}]" for i in range(k)],
                     params="w = list(weights)", row=f"{j}, {x}, y", snapshot="w[:]")


# The most entries `_orders` draws into one table (a row more when one epoch
# holds more), so a long fit's orders are never all held at once: a fit of
# 1,200 rows and 50 epochs holds one table of 3 epochs and one listed order.
_ORDER_BLOCK = 2**12


def _orders(n: int, epochs: int, shuffler):
    """The rows of `epochs` successive `shuffler.permutation(n)` calls, one list
    at a time: `permuted` shuffles each row of a table of `arange(n)` rows in
    turn, with the same draws, a block of whole epochs per call."""
    per_block = max(1, _ORDER_BLOCK // n)
    for first in range(0, epochs, per_block):
        table = np.empty((min(per_block, epochs - first), n), dtype=np.int64)
        table[:] = np.arange(n)
        shuffler.permuted(table, axis=1, out=table)
        for order in table:
            yield order.tolist()


def _sgd(weights, bias: float, rows, activation: str, config: TrainConfig, stream, slots: int = 0):
    """SGD over flat rows `(x0, ..., x{d-1}, y)`, one update per row; returns
    (weights, bias, epoch_losses).

    When shuffling, epoch e visits the rows in the e-th `permutation(n)` of the
    one generator `rng_for(config.seed, "shuffle", stream)`, drawn by
    `_orders`. The whole fit is one call of the generated
    `_epoch_for(len(weights), activation, config.loss)`, which sums `w.x + b`
    as `_z` does and checks finiteness once per epoch.

    An epoch that ends non-finite is replayed from its start, one row per call
    of the same function (`_replay_epoch`), and raises the TrainingError naming
    the first faulty step. A replay that finds none had a loss total overflow
    from finite losses, which is no fault: the fit goes on from that epoch's
    end, in one more call.

    With `slots` > 0 the rows are the sigmoid readout's active-slot rows of
    that many slots and the fit runs `_slot_epoch_for(slots, config.loss)`.
    """
    n = len(rows)
    lr = config.learning_rate
    run = (_slot_epoch_for(slots, config.loss) if slots
           else _epoch_for(len(weights), activation, config.loss))
    orders = (_orders(n, config.epochs, rng_for(config.seed, "shuffle", stream)) if config.shuffle
              else itertools.repeat(range(n), config.epochs))
    weights = list(weights)
    epoch_losses = []
    while True:
        weights, bias, totals, fault = run(weights, bias, rows, orders, lr)
        epoch_losses += [total / n for total in totals]
        if fault is None:
            return weights, bias, epoch_losses
        _replay_epoch(len(epoch_losses) - 1, *fault, rows, run, lr)


def _replay_epoch(epoch: int, weights, bias: float, order, rows, run, lr: float) -> None:
    """Run epoch `epoch` again from its start, one row per call; raise at the first fault."""
    for step, idx in enumerate(order):
        weights, bias, (loss,), fault = run(weights, bias, rows, ((idx,),), lr)
        if fault:
            kind = "loss" if not math.isfinite(loss) else "parameters"
            raise TrainingError(f"non-finite {kind} at epoch {epoch} step {step}")


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
    rows = list(zip(*subset.features.T.tolist(), subset.labels.astype(float).tolist()))
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
    values = floats([*obj["weights"], obj["bias"]], f"unit {obj['unit_index']!r}: weights and bias")
    return NeuronUnit(unit_index=obj["unit_index"], activation=obj["activation"],
                      weights=values[:-1], bias=values[-1])


def save_unit(unit: NeuronUnit, path) -> None:
    write_json(unit_to_dict(unit), path)
