import math

import numpy as np
import pytest

import switchnet as sn
from switchnet import neuron
from switchnet.jsonio import read_input
from switchnet.neuron import _loss_dz, unit_from_dict
from switchnet.seeding import rng_for


def make_unit(weights, bias=0.0, activation="sigmoid", index=0):
    return sn.NeuronUnit(unit_index=index, activation=activation,
                         weights=tuple(weights), bias=bias)


def obs(features, label, oid=0, group=0):
    return sn.Observation(id=oid, group=group, label=label, features=tuple(features))


def rows(*observations, dim=None):
    """The observations as a training subset (a dataset of these rows, in this order)."""
    dim = dim or len(observations[0].features)
    return sn.Dataset.from_observations(dim=dim, groups=((0, "group 0"),), observations=observations)


# ------------------------------------------------------------------- init

def test_init_deterministic_with_pinned_values():
    unit = sn.init_unit(2, "sigmoid", 0, seed=42)
    again = sn.init_unit(2, "sigmoid", 0, seed=42)
    assert unit == again
    # regression pin for the shipped seed
    assert unit.weights == (0.27395604855596334, -0.06112156024794768)
    assert unit.bias == 0.0


def test_init_units_differ_by_index():
    u0 = sn.init_unit(2, "sigmoid", 0, seed=42)
    u1 = sn.init_unit(2, "sigmoid", 1, seed=42)
    assert u0.weights != u1.weights


def test_init_weight_range_and_zero_bias():
    for k in range(10):
        unit = sn.init_unit(4, "relu", k, seed=9)
        assert unit.bias == 0.0
        assert all(-0.5 <= w <= 0.5 for w in unit.weights)


def test_init_rejects_zero_dim():
    with pytest.raises(sn.TrainingError):
        sn.init_unit(0, "sigmoid", 0, seed=1)


# ------------------------------------------------------------------- forward

def test_forward_sigmoid_at_zero():
    assert sn.unit_forward(make_unit((0.0, 0.0)), (5.0, -3.0)) == 0.5


def test_forward_sigmoid_scalar_oracle():
    # w.x = 2 - 1 = 1, so the output is sigmoid(1)
    value = sn.unit_forward(make_unit((1.0, -1.0)), (2.0, 1.0))
    assert abs(value - 1.0 / (1.0 + math.exp(-1.0))) < 1e-6


def test_forward_relu_negative_preactivation():
    assert sn.unit_forward(make_unit((1.0, 0.0), bias=-2.0, activation="relu"), (1.0, 0.0)) == 0.0


def test_forward_tanh_scalar_oracle():
    value = sn.unit_forward(make_unit((0.5, 0.5), activation="tanh"), (1.0, 2.0))
    assert abs(value - math.tanh(1.5)) < 1e-12


def test_forward_dimension_mismatch():
    with pytest.raises(sn.TrainingError, match="features"):
        sn.unit_forward(make_unit((1.0, 2.0)), (1.0,))


# ------------------------------------------------------------------- gradients

def test_gradient_mse_sigmoid_at_zero_weights():
    # yhat = 0.5, dL/dyhat = 2(0.5 - 1) = -1, sigmoid'(0) = 0.25
    g = sn.unit_gradient(make_unit((0.0, 0.0)), (1.0, 1.0), 1, "mse")
    assert g.d_bias == -0.25
    assert g.d_weights == (-0.25, -0.25)


def test_gradient_bce_sigmoid_at_zero_weights():
    g = sn.unit_gradient(make_unit((0.0, 0.0)), (1.0, 1.0), 1, "bce")
    assert g.d_bias == -0.5
    assert g.d_weights == (-0.5, -0.5)


def test_gradient_bce_requires_sigmoid():
    with pytest.raises(sn.TrainingError, match="bce"):
        sn.unit_gradient(make_unit((0.0,), activation="relu"), (1.0,), 1, "bce")
    with pytest.raises(sn.TrainingError, match="bce"):
        sn.unit_gradient(make_unit((0.0,), activation="tanh"), (1.0,), 0, "bce")


def test_fd_matches_analytic_at_zero_weights():
    fd = sn.fd_gradient(make_unit((0.0, 0.0)), (1.0, 1.0), 1, "mse")
    assert abs(fd.d_bias - (-0.25)) < 1e-8
    assert all(abs(d - (-0.25)) < 1e-8 for d in fd.d_weights)


def _relative_errors(analytic, fd):
    pairs = list(zip(analytic.d_weights, fd.d_weights)) + [(analytic.d_bias, fd.d_bias)]
    return [abs(a - f) / max(abs(a), abs(f), 1e-8) for a, f in pairs]


def test_gradient_matches_fd_over_random_configurations():
    # 100 random (activation, loss, unit, point) cases; relu kink excluded
    gen = np.random.default_rng(77)
    pairs = [("sigmoid", "mse"), ("sigmoid", "bce"), ("tanh", "mse"), ("relu", "mse")]
    checked = 0
    while checked < 100:
        activation, loss = pairs[checked % len(pairs)]
        dim = int(gen.integers(1, 5))
        unit = make_unit(gen.uniform(-1, 1, dim), bias=float(gen.uniform(-1, 1)),
                         activation=activation)
        x = tuple(float(v) for v in gen.uniform(-2, 2, dim))
        y = int(gen.integers(0, 2))
        z = sum(w * xi for w, xi in zip(unit.weights, x)) + unit.bias
        if activation == "relu" and abs(z) < 1e-3:
            continue  # fd is unreliable across the kink
        analytic = sn.unit_gradient(unit, x, y, loss)
        fd = sn.fd_gradient(unit, x, y, loss, h=1e-5)
        assert max(_relative_errors(analytic, fd)) <= 1e-4
        checked += 1


# ------------------------------------------------------------------- training

def test_train_single_analytic_step():
    cfg = sn.TrainConfig(learning_rate=0.1, epochs=1, loss="mse", seed=0, shuffle=False)
    trained, log = sn.train_unit(make_unit((0.0, 0.0)), rows(obs((1.0, 1.0), 1)), cfg)
    assert trained.weights == (0.025, 0.025)
    assert trained.bias == 0.025
    assert log.steps == 1
    assert log.epoch_losses == (0.25,)
    assert log.final_loss == 0.25


def test_train_loss_decreases_on_separable_subset():
    gen = np.random.default_rng(5)
    subset = [obs((float(gen.normal(2.0, 0.3)), 1.0), 1, oid=i) for i in range(5)]
    subset += [obs((float(gen.normal(-2.0, 0.3)), 1.0), 0, oid=5 + i) for i in range(5)]
    cfg = sn.TrainConfig(learning_rate=0.1, epochs=50, loss="bce", seed=1, shuffle=True)
    _, log = sn.train_unit(sn.init_unit(2, "sigmoid", 0, seed=3), rows(*subset), cfg)
    assert log.final_loss < log.epoch_losses[0]
    assert len(log.epoch_losses) == 50


def test_train_bit_identical_reruns():
    subset = rows(obs((0.5, -0.5), 1, oid=0), obs((-0.5, 0.5), 0, oid=1), obs((1.0, 1.0), 1, oid=2))
    cfg = sn.TrainConfig(learning_rate=0.2, epochs=20, loss="bce", seed=9, shuffle=True)
    first = sn.train_unit(sn.init_unit(2, "sigmoid", 0, seed=4), subset, cfg)
    second = sn.train_unit(sn.init_unit(2, "sigmoid", 0, seed=4), subset, cfg)
    assert first == second


def test_train_isolation_order_independent():
    # training one unit must not affect another, whichever order runs
    subset_a = rows(obs((1.0, 0.0), 1, oid=0), obs((-1.0, 0.0), 0, oid=1))
    subset_b = rows(obs((0.0, 1.0), 1, oid=2), obs((0.0, -1.0), 0, oid=3))
    cfg = sn.TrainConfig(learning_rate=0.1, epochs=10, loss="bce", seed=2, shuffle=True)
    unit_a = sn.init_unit(2, "sigmoid", 0, seed=8)
    unit_b = sn.init_unit(2, "sigmoid", 1, seed=8)
    a_then_b = (sn.train_unit(unit_a, subset_a, cfg), sn.train_unit(unit_b, subset_b, cfg))
    b_then_a = (sn.train_unit(unit_b, subset_b, cfg), sn.train_unit(unit_a, subset_a, cfg))
    assert a_then_b[0] == b_then_a[1]
    assert a_then_b[1] == b_then_a[0]


def test_train_rejects_empty_subset():
    cfg = sn.TrainConfig()
    with pytest.raises(sn.TrainingError, match="empty"):
        sn.train_unit(make_unit((0.0,)), rows(dim=1), cfg)


def test_train_rejects_subset_of_other_width():
    with pytest.raises(sn.TrainingError, match=r"^unit 0: subset has 1 features per observation, expected 2$"):
        sn.train_unit(make_unit((0.0, 0.0)), rows(obs((1.0,), 1)), sn.TrainConfig())


def test_train_aborts_on_non_finite_loss():
    cfg = sn.TrainConfig(learning_rate=0.1, epochs=1, loss="mse", seed=0, shuffle=False)
    diverged = make_unit((1.0,), activation="relu")
    with pytest.raises(sn.TrainingError, match=r"^unit 0: non-finite loss at epoch 0 step 0$"):
        sn.train_unit(diverged, rows(obs((1e200,), 0)), cfg)


@pytest.mark.parametrize("learning_rate,features,labels,message", [
    # the weight grows about 1e46-fold an epoch until the loss overflows
    (2e22, (2.0, 3.0, -2.0, -3.0), (1, 0, 0, 0), "non-finite loss at epoch 3 step 2"),
    # a finite loss whose update overflows the weight
    (1e154, (-1.0, -2.0, 1.0), (1, 1, 0), "non-finite parameters at epoch 1 step 1"),
])
def test_train_names_a_later_faulty_step(learning_rate, features, labels, message):
    cfg = sn.TrainConfig(learning_rate=learning_rate, epochs=6, loss="mse", seed=0, shuffle=False)
    subset = rows(*(obs((x,), y, oid=i) for i, (x, y) in enumerate(zip(features, labels))))
    with pytest.raises(sn.TrainingError, match=rf"^unit 0: {message}$"):
        sn.train_unit(make_unit((0.5,), activation="relu"), subset, cfg)


def test_train_loss_total_may_overflow_from_finite_losses():
    # each step's loss is about 1e308 and finite, the parameters stay finite, and
    # only the epoch's sum overflows: no step is at fault, so training goes on
    cfg = sn.TrainConfig(learning_rate=5e-324, epochs=2, loss="mse", seed=0, shuffle=False)
    subset = rows(obs((1e154,), 0, oid=0), obs((1e154,), 0, oid=1))
    trained, log = sn.train_unit(make_unit((1.0,), activation="relu"), subset, cfg)
    assert log.epoch_losses == (math.inf, math.inf)
    assert all(map(math.isfinite, trained.weights + (trained.bias,)))


def test_train_parameters_stay_finite():
    subset = rows(obs((0.3, -0.7), 1, oid=0), obs((-0.2, 0.4), 0, oid=1))
    cfg = sn.TrainConfig(learning_rate=0.5, epochs=100, loss="bce", seed=0, shuffle=True)
    trained, _ = sn.train_unit(sn.init_unit(2, "sigmoid", 0, seed=0), subset, cfg)
    assert math.isfinite(trained.bias)
    assert all(math.isfinite(w) for w in trained.weights)


def test_train_config_validation():
    with pytest.raises(sn.TrainingError):
        sn.TrainConfig(learning_rate=0.0)
    with pytest.raises(sn.TrainingError):
        sn.TrainConfig(epochs=0)
    with pytest.raises(sn.TrainingError):
        sn.TrainConfig(loss="hinge")


def test_train_bce_requires_sigmoid_unit():
    cfg = sn.TrainConfig(loss="bce")
    with pytest.raises(sn.TrainingError, match="bce"):
        sn.train_unit(make_unit((0.0,), activation="tanh"), rows(obs((1.0,), 1)), cfg)


# ------------------------------------------------------------------- scalar oracle

def _oracle_sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def replay_sgd(weights, bias, rows, activation, config, stream):
    """Pure-Python SGD: per-step left-to-right z, the trainer's epoch order and update.

    Epoch e's order is the e-th permutation drawn from the one (seed, "shuffle", stream)
    generator.
    """
    weights = list(weights)
    epoch_losses = []
    shuffler = rng_for(config.seed, "shuffle", stream)
    for epoch in range(config.epochs):
        order = range(len(rows))
        if config.shuffle:
            order = shuffler.permutation(len(rows))
        total = 0.0
        for idx in order:
            x, y = rows[idx]
            z = 0.0
            for w, xi in zip(weights, x):
                z += w * xi
            z += bias
            if activation == "sigmoid":
                a = _oracle_sigmoid(z)
                da = a * (1.0 - a)
            elif activation == "tanh":
                a = math.tanh(z)
                da = 1.0 - a * a
            else:
                a = z if z > 0 else 0.0
                da = 1.0 if z > 0 else 0.0
            if config.loss == "bce":
                loss = max(z, 0.0) - z * y + math.log1p(math.exp(-abs(z)))
                dz = _oracle_sigmoid(z) - y
            else:
                loss = (a - y) * (a - y)
                dz = 2.0 * (a - y) * da
            step = config.learning_rate * dz
            weights = [w - step * xi for w, xi in zip(weights, x)]
            bias = bias - step
            total += loss
        epoch_losses.append(total / len(rows))
    return weights, bias, epoch_losses


def _default_subsets():
    config = sn.load_config(sn.default_config_path())
    dataset = sn.generate_synthetic(config.specs, config.seed)
    parts = sn.partition(dataset, config.plan, config.seed)
    return config, dataset, parts


@pytest.mark.parametrize("shuffle", [True, False])
@pytest.mark.parametrize("activation,loss",
                         [("sigmoid", "bce"), ("sigmoid", "mse"), ("tanh", "mse"), ("relu", "mse")])
def test_train_unit_matches_scalar_oracle_bit_for_bit(activation, loss, shuffle):
    config, dataset, parts = _default_subsets()
    for k, ids in enumerate(parts.subsets):
        subset = dataset.subset(ids)
        unit = sn.init_unit(dataset.dim, activation, k, seed=config.seed)
        train = sn.TrainConfig(learning_rate=config.train.learning_rate, epochs=config.train.epochs,
                               loss=loss, seed=sn.node_train_config(config.train, k).seed,
                               shuffle=shuffle)
        trained, log = sn.train_unit(unit, subset, train)
        weights, bias, losses = replay_sgd(unit.weights, unit.bias,
                                           [(o.features, o.label) for o in map(dataset.observation, ids)],
                                           activation, train, k)
        assert repr(trained.weights) == repr(tuple(weights)), f"unit {k}"
        assert repr(trained.bias) == repr(bias), f"unit {k}"
        assert repr(log.epoch_losses) == repr(tuple(losses)), f"unit {k}"


@pytest.mark.parametrize("shuffle", [True, False])
@pytest.mark.parametrize("loss", ["bce", "mse"])
def test_fit_readout_matches_scalar_oracle_bit_for_bit(loss, shuffle):
    config, dataset, parts = _default_subsets()
    units = [sn.train_unit(sn.init_unit(dataset.dim, "sigmoid", k, seed=config.seed),
                           dataset.subset(ids),
                           sn.node_train_config(config.train, k))[0]
             for k, ids in enumerate(parts.subsets)]
    # three active units per group, so the order of the readout's sum matters
    switch, _ = sn.build_switch(len(units), {g: {g, (g + 1) % 5, (g + 2) % 5} for g in range(5)},
                                "error")
    net = sn.assemble(units, switch, "linear-readout")
    ids = sorted(parts.assigned_ids())
    rows = []
    for i in ids:
        o = dataset.observation(i)
        on = sn.route(switch, o.group)
        rows.append(([sn.unit_forward(u, o.features) if u.unit_index in on else 0.0 for u in units],
                     o.label))
    train = sn.TrainConfig(learning_rate=0.3, epochs=20, loss=loss, seed=config.seed, shuffle=shuffle)
    fitted = sn.fit_readout(net, ids, dataset, train)
    weights, bias, _ = replay_sgd(net.aggregation.weights, net.aggregation.bias, rows, "sigmoid",
                                  train, "readout")
    assert repr(fitted.aggregation) == repr(sn.LinearReadout(weights=tuple(weights), bias=bias))


def _two_call_activate(kind, z):
    if kind == "sigmoid":
        return _oracle_sigmoid(z)
    if kind == "relu":
        return z if z > 0 else 0.0
    return math.tanh(z)


def _two_call_activate_prime(kind, z):
    if kind == "sigmoid":
        s = _oracle_sigmoid(z)
        return s * (1.0 - s)
    if kind == "relu":
        return 1.0 if z > 0 else 0.0
    t = math.tanh(z)
    return 1.0 - t * t


def _two_call_loss(z, y, loss, activation):
    """The loss as computed before `_loss_dz`, apart from the gradient."""
    if loss == "bce":
        return max(z, 0.0) - z * y + math.log1p(math.exp(-abs(z)))
    diff = _two_call_activate(activation, z) - y
    return diff * diff


def _two_call_dz(activation, loss, z, y):
    """The gradient as computed before `_loss_dz`, apart from the loss."""
    if loss == "bce":
        return _oracle_sigmoid(z) - y
    return 2.0 * (_two_call_activate(activation, z) - y) * _two_call_activate_prime(activation, z)


EDGE_ZS = (0.0, -0.0, 5e-324, -5e-324, 1.1e-308, -1.1e-308, 1e-17, -1e-17, 0.5, -0.5, 1.0, -1.0,
           36.7, -36.7, 699.9, -699.9, 709.78, -709.78, 710.0, -710.0, 745.2, -745.2,
           1e300, -1e300)


@pytest.mark.parametrize("activation,loss",
                         [("sigmoid", "bce"), ("sigmoid", "mse"), ("tanh", "mse"), ("relu", "mse")])
def test_loss_dz_matches_two_call_formulas_bit_for_bit(activation, loss):
    for z in EDGE_ZS:
        for y in (0, 1):
            got_loss, got_dz = _loss_dz(activation, loss, z, y)
            assert repr(got_loss) == repr(_two_call_loss(z, y, loss, activation)), (z, y)
            assert repr(got_dz) == repr(_two_call_dz(activation, loss, z, y)), (z, y)


def test_sgd_compiles_one_epoch_per_width(monkeypatch):
    compiled = []

    def counting_compile(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(neuron, "compile", counting_compile, raising=False)
    neuron._epoch_for.cache_clear()
    config = sn.TrainConfig(epochs=2, loss="mse", seed=0)
    rows = [([1.0, -2.0], 1), ([0.5, 0.25], 0)]
    for _ in range(2):
        neuron._sgd([0.1, 0.2], 0.0, rows, "tanh", config, stream=0)
    assert len(compiled) == 1
    assert neuron._epoch_for(2) is neuron._epoch_for(2)
    assert neuron._epoch_for(1) is not neuron._epoch_for(2)
    assert len(compiled) == 2


# ------------------------------------------------------------------- serialization

def test_unit_json_roundtrip_exact(tmp_path):
    subset = rows(obs((0.5, -0.5), 1, oid=0), obs((-0.5, 0.5), 0, oid=1))
    trained, _ = sn.train_unit(sn.init_unit(2, "sigmoid", 3, seed=4), subset,
                               sn.TrainConfig(epochs=7, seed=4))
    path = tmp_path / "unit.json"
    sn.save_unit(trained, path)
    assert read_input(path, "unit file", unit_from_dict) == trained


@pytest.mark.parametrize("unit_index", [1.0, "1", True])
def test_unit_json_rejects_non_integer_index(unit_index):
    doc = {"unit_index": unit_index, "activation": "sigmoid", "weights": [0.5], "bias": 0.0}
    with pytest.raises(sn.TrainingError, match="unit_index must be an integer"):
        sn.neuron.unit_from_dict(doc)


@pytest.mark.parametrize("weights, bias", [(["0.5", True], "1e3"), ([0.5], "1e3"), ([None], 0.0),
                                           ([0.5], True)])
def test_unit_json_rejects_non_numbers(weights, bias):
    doc = {"unit_index": 0, "activation": "sigmoid", "weights": weights, "bias": bias}
    with pytest.raises(sn.TrainingError, match="must be JSON numbers"):
        sn.neuron.unit_from_dict(doc)


def test_unit_json_reads_integers_as_floats():
    doc = {"unit_index": 0, "activation": "sigmoid", "weights": [1, -0.5], "bias": 0}
    unit = sn.neuron.unit_from_dict(doc)
    assert repr(unit.weights) == "(1.0, -0.5)" and repr(unit.bias) == "0.0"
