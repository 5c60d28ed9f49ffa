import dataclasses
import functools
import json
import math
import operator
import re

import numpy as np
import pytest

import oracle
import switchnet as sn
from switchnet import network
from switchnet.neuron import _z


def zero_units(n, dim=2, activation="sigmoid"):
    return [sn.NeuronUnit(unit_index=k, activation=activation, weights=(0.0,) * dim, bias=0.0)
            for k in range(n)]


def identity_switch(n, fallback="error"):
    table, _ = sn.build_switch(n, {g: {g} for g in range(n)}, fallback=fallback)
    return table


def obs(features, label=1, oid=0, group=0):
    return sn.Observation(id=oid, group=group, label=label, features=tuple(features))


def two_group_dataset(label_by_group=(1, 0), n_per_group=12, seed=6):
    """Two well-separated clusters; labels constant per group."""
    specs = [
        sn.GroupSpec(name="left", mean=(-2.0, 0.0), scale=(0.3, 0.3),
                     label_rule=sn.LabelRule("all-one" if label_by_group[0] else "all-zero"),
                     count=n_per_group),
        sn.GroupSpec(name="right", mean=(2.0, 0.0), scale=(0.3, 0.3),
                     label_rule=sn.LabelRule("all-one" if label_by_group[1] else "all-zero"),
                     count=n_per_group),
    ]
    return sn.generate_synthetic(specs, seed=seed)


def trained_two_unit_net(dataset, epochs=80, aggregation="router-mean"):
    cfg = sn.TrainConfig(learning_rate=0.5, epochs=epochs, loss="bce", seed=1, shuffle=True)
    units = []
    for g in range(2):
        subset = dataset.subset(dataset.ids[dataset.row_groups == g].tolist())
        unit, _ = sn.train_unit(sn.init_unit(2, "sigmoid", g, seed=2), subset, cfg)
        units.append(unit)
    return sn.assemble(units, identity_switch(2), aggregation)


# ------------------------------------------------------------------ assembly

def test_assemble_validates_unit_count():
    with pytest.raises(sn.NetworkError, match="expects 4"):
        sn.assemble(zero_units(5), identity_switch(4))


def test_assemble_rejects_unit_at_wrong_position():
    units = zero_units(4)
    units[2], units[3] = units[3], units[2]
    message = "switch expects 4 units, indices 0..3 in order; got indices [0, 1, 3, 2]"
    with pytest.raises(sn.NetworkError, match=f"^{re.escape(message)}$"):
        sn.assemble(units, identity_switch(4))


def test_assemble_rejects_empty():
    with pytest.raises(sn.NetworkError, match="at least one"):
        sn.assemble([], identity_switch(1))


def test_assemble_rejects_mixed_dims():
    units = zero_units(2)
    units[1] = sn.NeuronUnit(unit_index=1, activation="sigmoid", weights=(0.0, 0.0, 0.0), bias=0.0)
    with pytest.raises(sn.NetworkError, match="dim"):
        sn.assemble(units, identity_switch(2))


def test_assemble_readout_shape_checked():
    with pytest.raises(sn.NetworkError, match="readout"):
        sn.assemble(zero_units(3), identity_switch(3),
                    sn.LinearReadout(weights=(0.1, 0.2), bias=0.0))


# ------------------------------------------------------------------ forward

def test_forward_single_active_unit_is_identity():
    units = zero_units(5)
    units[2] = sn.NeuronUnit(unit_index=2, activation="sigmoid", weights=(1.0, -1.0), bias=0.0)
    net = sn.assemble(units, identity_switch(5))
    pred = sn.forward(net, obs((2.0, 1.0), group=2))
    expected = 1.0 / (1.0 + math.exp(-1.0))
    assert pred.score == pytest.approx(expected, abs=1e-12)
    assert pred.score == pred.gated_activations[2]


def test_forward_zero_weights_ties_to_label_one():
    net = sn.assemble(zero_units(3), identity_switch(3))
    pred = sn.forward(net, obs((4.0, -4.0), group=1))
    assert pred.score == 0.5
    assert pred.predicted_label == 1


def test_zero_activation_law_exact():
    net = trained_two_unit_net(two_group_dataset())
    pred = sn.forward(net, obs((0.3, 0.4), group=0))
    assert pred.gated_activations[1] == 0.0
    assert pred.active == (0,)


def test_gating_invariance_under_inactive_perturbation():
    gen = np.random.default_rng(123)
    net = trained_two_unit_net(two_group_dataset())
    for _ in range(100):
        point = obs(tuple(float(v) for v in gen.uniform(-3, 3, 2)), group=0)
        baseline = sn.forward(net, point)
        mutated_unit = sn.NeuronUnit(unit_index=1, activation="sigmoid",
                                     weights=tuple(float(v) for v in gen.uniform(-5, 5, 2)),
                                     bias=float(gen.uniform(-5, 5)))
        mutated = sn.assemble([net.units[0], mutated_unit], net.switch, net.aggregation)
        perturbed = sn.forward(mutated, point)
        assert perturbed == baseline
        assert repr(perturbed) == repr(baseline)


def test_forward_empty_active_set_under_none_fallback():
    net = sn.assemble(zero_units(2), identity_switch(2, fallback="none-active"))
    point = obs((1.0, 1.0), group=7)
    pred = sn.forward(net, point)
    assert pred.score == 0.5
    assert pred.predicted_label == 1
    assert pred.gated_activations == (0.0, 0.0)
    assert pred.active == ()
    assert repr(pred) == repr(oracle.forward(net, point))


@pytest.mark.parametrize("width", [1, 3])
def test_forward_rejects_wrong_width_observation(width):
    net = sn.assemble(zero_units(2), identity_switch(2))
    point = obs((1.0,) * width, oid=41)
    with pytest.raises(sn.NetworkError, match=f"^observation 41 has {width} features, expected 2$") as got:
        sn.forward(net, point)
    with pytest.raises(sn.NetworkError) as expected:
        oracle.forward(net, point)
    assert repr(got.value) == repr(expected.value)


def test_forward_routing_error_propagates():
    net = sn.assemble(zero_units(2), identity_switch(2))
    with pytest.raises(sn.RoutingError, match="group 9"):
        sn.forward(net, obs((1.0, 1.0), group=9))


# ------------------------------------------------------------------ probe

def heatmap_probe(net, point):
    """Every unit's ungated activation on one observation, read from the heatmap
    over a dataset of that observation alone (the mean of one value is itself;
    probes ignore the switch, so the row may stand in group 0)."""
    dataset = sn.Dataset.from_observations(dim=net.dim, groups=((0, "only"),),
                                           observations=(dataclasses.replace(point, group=0),))
    return tuple(row[0] for row in sn.heatmap(net, [point.id], dataset).values)


def test_probe_all_zero_weight_units():
    net = sn.assemble(zero_units(5), identity_switch(5))
    point = obs((1.0, 2.0))
    assert heatmap_probe(net, point) == oracle.probes(net, point) == (0.5,) * 5


def test_probe_matches_gated_on_active_indices():
    net = trained_two_unit_net(two_group_dataset())
    point = obs((-1.5, 0.2), group=1)
    probe = heatmap_probe(net, point)
    assert repr(probe) == repr(oracle.probes(net, point))
    pred = sn.forward(net, point)
    for i in pred.active:
        assert probe[i] == pred.gated_activations[i]


def test_probe_scalar_oracle():
    units = zero_units(3)
    units[1] = sn.NeuronUnit(unit_index=1, activation="sigmoid", weights=(1.0, -1.0), bias=0.0)
    net = sn.assemble(units, identity_switch(3))
    probe = heatmap_probe(net, obs((2.0, 1.0)))
    assert abs(probe[1] - 0.7310585786300049) < 1e-6


# ------------------------------------------------------------------ evaluation

def test_evaluate_perfectly_separable_clusters():
    dataset = two_group_dataset(label_by_group=(1, 0))
    net = trained_two_unit_net(dataset)
    ids = dataset.ids.tolist()
    metrics = sn.evaluate(net, ids, dataset, "non-overlapping")
    # brute-force oracle: compare each unit's own prediction to the label
    for o in map(dataset.observation, ids):
        score = sn.unit_forward(net.units[o.group], o.features)
        assert (1 if score >= 0.5 else 0) == o.label
    assert metrics.accuracy == 1.0
    assert metrics.per_group_accuracy == {0: 1.0, 1: 1.0}
    assert metrics.n == len(ids)


def test_evaluate_group_accuracies_recompose():
    dataset = two_group_dataset(label_by_group=(1, 1))
    net = sn.assemble(zero_units(2), identity_switch(2))
    metrics = sn.evaluate(net, dataset.ids.tolist(), dataset, "overlapping")
    counts = {g: int(np.count_nonzero(dataset.row_groups == g)) for g in (0, 1)}
    recomposed = sum(metrics.per_group_accuracy[g] * counts[g] for g in counts) / metrics.n
    assert abs(recomposed - metrics.accuracy) < 1e-12


def test_evaluate_order_independent():
    dataset = two_group_dataset()
    net = trained_two_unit_net(dataset)
    ids = list(dataset.ids.tolist())
    forward_metrics = sn.evaluate(net, ids, dataset, "overlapping")
    reversed_metrics = sn.evaluate(net, list(reversed(ids)), dataset, "overlapping")
    assert forward_metrics == reversed_metrics


def test_evaluate_rejects_empty_and_unknown_ids():
    dataset = two_group_dataset()
    net = trained_two_unit_net(dataset)
    with pytest.raises(sn.NetworkError, match="at least one"):
        sn.evaluate(net, [], dataset, "overlapping")
    with pytest.raises(sn.DataError, match="unknown observation"):
        sn.evaluate(net, [9999], dataset, "overlapping")


def test_evaluate_rejects_bad_set_kind():
    dataset = two_group_dataset()
    net = trained_two_unit_net(dataset)
    with pytest.raises(sn.NetworkError, match="set_kind"):
        sn.evaluate(net, dataset.ids.tolist(), dataset, "validation")


@pytest.mark.parametrize("call", [
    lambda net, ids, ds: sn.evaluate(net, ids, ds, "overlapping"),
    sn.neuron_contribution,
    sn.heatmap,
    lambda net, ids, ds: sn.fit_readout(net, ids, ds, sn.TrainConfig(epochs=1)),
], ids=["evaluate", "contribution", "heatmap", "fit_readout"])
def test_batch_passes_reject_dataset_of_other_dimension(call):
    # the block kernel reads features by column, so a width mismatch must fail, not truncate
    dataset = sn.Dataset.from_observations(
        dim=3, groups=((0, "a"),),
        observations=(sn.Observation(id=0, group=0, label=1, features=(1.0, 2.0, 3.0)),))
    net = sn.assemble(zero_units(1), identity_switch(1), "linear-readout")
    with pytest.raises(sn.NetworkError, match="3 features per observation, the network expects 2"):
        call(net, dataset.ids.tolist(), dataset)


# ------------------------------------------------------------------ readout

def readout_mean_loss(net, ids, dataset):
    """Mean bce of the readout over forward's gated vectors."""
    total = 0.0
    for i in ids:
        o = dataset.observation(i)
        z = _z(net.aggregation.weights, net.aggregation.bias, sn.forward(net, o).gated_activations)
        total += oracle.loss_dz("sigmoid", "bce", z, o.label)[0]
    return total / len(ids)


def test_fit_readout_keeps_units_frozen():
    dataset = two_group_dataset(label_by_group=(1, 0))
    net = trained_two_unit_net(dataset, aggregation="linear-readout")
    fitted = sn.fit_readout(net, dataset.ids.tolist(), dataset, sn.TrainConfig(epochs=10, seed=3))
    assert fitted.units == net.units
    assert isinstance(fitted.aggregation, sn.LinearReadout)
    assert len(fitted.aggregation.weights) == 2


def test_fit_readout_loss_decreases_over_first_epochs():
    dataset = two_group_dataset(label_by_group=(1, 0))
    net = trained_two_unit_net(dataset, aggregation="linear-readout")
    ids = dataset.ids.tolist()
    losses = [readout_mean_loss(net, ids, dataset)]
    for epochs in range(1, 6):
        fitted = sn.fit_readout(net, ids, dataset, sn.TrainConfig(epochs=epochs, seed=3))
        losses.append(readout_mean_loss(fitted, ids, dataset))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_fit_readout_requires_readout_aggregation():
    dataset = two_group_dataset()
    net = trained_two_unit_net(dataset)
    with pytest.raises(sn.NetworkError, match="linear-readout"):
        sn.fit_readout(net, dataset.ids.tolist(), dataset, sn.TrainConfig())


def test_fit_readout_rejects_empty_calibration():
    dataset = two_group_dataset()
    net = trained_two_unit_net(dataset, aggregation="linear-readout")
    with pytest.raises(sn.NetworkError, match="calibration"):
        sn.fit_readout(net, [], dataset, sn.TrainConfig())


def test_fit_readout_non_finite_guard_names_the_readout():
    # relu units with activations near 2e10: the first readout step overflows
    dataset = two_group_dataset(label_by_group=(1, 0))
    units = tuple(sn.NeuronUnit(unit_index=k, activation="relu", weights=(w, 0.0), bias=0.0)
                  for k, w in enumerate((-1e10, 1e10)))
    net = sn.assemble(units, identity_switch(2), "linear-readout")
    config = sn.TrainConfig(learning_rate=1e300, epochs=3, seed=3)
    with pytest.raises(sn.NetworkError, match=r"^readout: non-finite parameters at epoch 0 step 0$"):
        sn.fit_readout(net, dataset.ids.tolist(), dataset, config)
    assert net.units == units
    assert net.aggregation == sn.LinearReadout(weights=(0.0, 0.0), bias=0.0)


@pytest.mark.parametrize("learning_rate,features,labels,message", [
    (5e307, (3.0, 1.0, 0.5, 1.0), (1, 0, 1, 1), "non-finite loss at epoch 5 step 1"),
    (7e307, (0.5, 2.0, 1.0), (0, 1, 0), "non-finite parameters at epoch 3 step 1"),
])
def test_fit_readout_names_a_later_faulty_step(learning_rate, features, labels, message):
    # one relu unit whose activation is the feature, so the readout's rows are
    # (feature, label); its weight and bias swing by about the learning rate a
    # step until one overflows. In the second case the loss totals of epochs 0
    # and 2 overflow too, with no faulty step, and training goes on.
    dataset = sn.Dataset.from_observations(
        dim=1, groups=((0, "group 0"),),
        observations=[obs((x,), y, oid=i) for i, (x, y) in enumerate(zip(features, labels))])
    unit = sn.NeuronUnit(unit_index=0, activation="relu", weights=(1.0,), bias=0.0)
    net = sn.assemble((unit,), identity_switch(1), "linear-readout")
    config = sn.TrainConfig(learning_rate=learning_rate, epochs=6, loss="bce", seed=0, shuffle=False)
    with pytest.raises(sn.TrainingError, match=rf"^{message}$"):
        oracle.sgd(net.aggregation.weights, net.aggregation.bias,
                   [((x,), y) for x, y in zip(features, labels)], "sigmoid", config, "readout")
    with pytest.raises(sn.NetworkError, match=rf"^readout: {message}$"):
        sn.fit_readout(net, dataset.ids.tolist(), dataset, config)


@pytest.mark.parametrize("start, learning_rate, calls, fault", [
    ((0.0, 0.0, 0.0), 0.5, [2], None),  # assemble's start: one active-slot fit of 2 slots
    # a -0.0 start weight is stored as 0.0, a slot of no row it is inactive in
    ((0.25, -0.0, 0.0), 0.5, [2], None),
    # a non-finite start weight is refused before any fit
    ((0.0, math.inf, 0.0), 0.5, [], "got inf"),
    # diverges: the active-slot fit's replay names the step
    ((0.0, 0.0, 0.0), 1e308, [2], "loss at epoch 0 step 3"),
])
def test_fit_readout_path(monkeypatch, start, learning_rate, calls, fault):
    made = []
    sgd = network._sgd

    def spy(*args, slots=0):
        made.append(slots)
        return sgd(*args, slots=slots)
    monkeypatch.setattr(network, "_sgd", spy)
    dataset = two_group_dataset(label_by_group=(1, 0))
    units = trained_two_unit_net(dataset).units
    units += (dataclasses.replace(units[0], unit_index=2),)
    switch, _ = sn.build_switch(3, {0: {0, 2}, 1: {1}})
    if not all(map(math.isfinite, start)):
        with pytest.raises(sn.DataError, match=f"within float range, {fault}$"):
            sn.LinearReadout(weights=start, bias=0.0)
        assert made == calls
        return
    net = sn.assemble(units, switch, sn.LinearReadout(weights=start, bias=0.0))
    config = sn.TrainConfig(learning_rate=learning_rate, epochs=5, seed=3)
    if fault is None:
        sn.fit_readout(net, dataset.ids.tolist(), dataset, config)
    else:  # the per-step-checked SGD over the dense gated rows names the same step
        rows = [(oracle.forward(net, o).gated_activations, o.label)
                for o in map(dataset.observation, dataset.ids.tolist())]
        with pytest.raises(sn.TrainingError, match=f"^non-finite {fault}$"):
            oracle.sgd(start, 0.0, rows, "sigmoid", config, "readout")
        with pytest.raises(sn.NetworkError, match=f"^readout: non-finite {fault}$"):
            sn.fit_readout(net, dataset.ids.tolist(), dataset, config)
    assert made == calls


# ------------------------------------------------------------------ contribution

def test_contribution_zero_for_never_activated_unit():
    dataset = two_group_dataset()
    units = zero_units(3)
    table, _ = sn.build_switch(3, {0: {0}, 1: {1}})  # unit 2 never routed
    net = sn.assemble(units, table)
    report = sn.neuron_contribution(net, dataset.ids.tolist(), dataset)
    assert report.rows[2].contribution == 0.0
    assert len(report.rows) == 3


def test_contribution_identity_switch_touches_only_own_group():
    dataset = two_group_dataset(label_by_group=(1, 0))
    net = trained_two_unit_net(dataset)
    ids = dataset.ids.tolist()
    full = sn.evaluate(net, ids, dataset, "overlapping")
    report = sn.neuron_contribution(net, ids, dataset)
    # ablating unit 1 (group 1, label 0) flips group 1 to the 0.5 -> label 1 rule
    group_sizes = {g: int(np.count_nonzero(dataset.row_groups == g)) for g in (0, 1)}
    row = report.rows[1]
    assert row.full_accuracy == full.accuracy
    expected_drop = group_sizes[1] / len(ids)  # every group-1 prediction goes wrong
    assert row.contribution == pytest.approx(expected_drop, abs=1e-12)
    # ablating unit 0 (label-1 group) is masked by the tie rule: still predicted 1
    assert report.rows[0].contribution == 0.0


def test_contribution_identity():
    dataset = two_group_dataset()
    net = trained_two_unit_net(dataset)
    report = sn.neuron_contribution(net, dataset.ids.tolist(), dataset)
    for row in report.rows:
        assert row.contribution == row.full_accuracy - row.ablated_accuracy


# ------------------------------------------------------------------ serialization

def test_network_bundle_roundtrip_bit_identical_predictions(tmp_path):
    dataset = two_group_dataset(label_by_group=(1, 0))
    net = trained_two_unit_net(dataset)
    path = tmp_path / "network.json"
    sn.save_network(net, path)
    loaded = sn.load_network(path)
    assert loaded == net
    for o in map(dataset.observation, dataset.ids[:10].tolist()):
        assert sn.forward(loaded, o) == sn.forward(net, o)


def test_network_bundle_roundtrip_with_readout(tmp_path):
    dataset = two_group_dataset(label_by_group=(1, 0))
    net = trained_two_unit_net(dataset, aggregation="linear-readout")
    fitted = sn.fit_readout(net, dataset.ids.tolist(), dataset, sn.TrainConfig(epochs=5, seed=3))
    path = tmp_path / "network.json"
    sn.save_network(fitted, path)
    assert sn.load_network(path) == fitted


def test_load_network_names_the_file_it_cannot_parse(tmp_path):
    dataset = two_group_dataset(label_by_group=(1, 0))
    path = tmp_path / "network.json"
    sn.save_network(trained_two_unit_net(dataset), path)
    path.write_text(path.read_text()[:40])
    with pytest.raises(sn.DataError, match=f"^network bundle {re.escape(str(path))} is not valid JSON: "):
        sn.load_network(path)


@pytest.mark.parametrize("aggregation, message", [
    ({"kind": "linear_readout", "weights": [0.5, 0.5], "bias": 0.0}, "aggregation kind must be one of"),
    ({"kind": "linear-readout", "weights": ["0.5", 0.5], "bias": 0.0}, "must be JSON numbers"),
    ({"kind": "linear-readout", "weights": [0.5, 0.5], "bias": None}, "must be JSON numbers"),
    ({"kind": "linear-readout", "weights": [10**400, 0.5], "bias": 0.0}, "must be JSON numbers within float range"),
    ({"kind": "linear-readout", "weights": [0.5, 0.5], "bias": -math.inf}, r"within float range, got -inf$")])
def test_network_bundle_rejects_bad_aggregation(aggregation, message):
    doc = sn.network.network_to_dict(trained_two_unit_net(two_group_dataset()))
    doc["aggregation"] = aggregation
    # LinearReadout reads its numbers through jsonio.floats, so a bad one is a DataError
    error = sn.NetworkError if message.startswith("aggregation kind") else sn.DataError
    with pytest.raises(error, match=message):
        sn.network.network_from_dict(doc)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, True, "0.5"], ids=repr)
@pytest.mark.parametrize("place", ["weight", "bias"])
def test_linear_readout_refuses_what_is_not_a_finite_number(place, bad):
    weights, bias = ((0.5, bad), 0.0) if place == "weight" else ((0.5, 0.5), bad)
    message = f"readout weights and bias must be JSON numbers within float range, got {bad!r}"
    with pytest.raises(sn.DataError, match=f"^{re.escape(message)}$"):
        sn.LinearReadout(weights=weights, bias=bias)


def test_linear_readout_stores_finite_floats_and_no_negative_zero():
    readout = sn.LinearReadout(weights=(-0.0, 2, -0.5), bias=1)
    assert [math.copysign(1.0, w) for w in readout.weights] == [1.0, 1.0, -1.0]
    assert readout.weights == (0.0, 2.0, -0.5) and readout.bias == 1.0
    assert {type(v) for v in (*readout.weights, readout.bias)} == {float}


def test_network_json_with_negative_zero_weight_scores_as_zero(tmp_path):
    dataset = two_group_dataset(label_by_group=(1, 0))
    net = trained_two_unit_net(dataset, aggregation="linear-readout")
    predictions = []
    for zero in (-0.0, 0.0):
        doc = network.network_to_dict(net)
        doc["aggregation"].update(weights=[zero, 1.5], bias=0.25)
        path = tmp_path / f"network_{zero}.json"
        path.write_text(json.dumps(doc))
        loaded = sn.load_network(path)
        assert math.copysign(1.0, loaded.aggregation.weights[0]) == 1.0
        predictions.append(repr([sn.forward(loaded, o) for o in map(dataset.observation, dataset.ids.tolist())]))
    assert '"weights": [-0.0, 1.5]' in (tmp_path / "network_-0.0.json").read_text()
    assert predictions[0] == predictions[1]


def test_contribution_call_counts(monkeypatch):
    dataset = two_group_dataset()
    extra = sn.Observation(id=99, group=2, label=1, features=(0.0, 3.0))
    dataset = sn.Dataset.from_observations(
        dim=2, groups=((0, "left"), (1, "right"), (2, "top")),
        observations=(*map(dataset.observation, dataset.ids.tolist()), extra))
    table, _ = sn.build_switch(3, {0: {0, 2}, 1: {1}}, fallback="all-active")
    net = sn.assemble(trained_two_unit_net(dataset).units + (zero_units(3)[2],), table)
    ids = dataset.ids.tolist()
    active_total = sum(len(sn.route(table, dataset.observation(i).group)) for i in ids)
    calls = {"unit_forward": 0, "route": 0, "unit_rows": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def counted_table(units, features):
        calls["unit_rows"] += len(units) * len(features)
        return unit_table(units, features)

    unit_table = network._unit_table
    monkeypatch.setattr(network, "_unit_table", counted_table)
    monkeypatch.setattr(network, "unit_forward", counted("unit_forward", network.unit_forward))
    monkeypatch.setattr(network, "route", counted("route", network.route))
    sn.neuron_contribution(net, ids, dataset)
    # each active (unit, observation) is computed exactly once, as one cell of a block's table
    assert calls["unit_rows"] == active_total
    assert calls["unit_forward"] == 0
    assert calls["route"] == len({dataset.observation(i).group for i in ids})


def test_router_mean_sums_left_to_right():
    # slots (1.0, ~1e-16, ~1e-16): the left-to-right sum stays 1.0, a compensated one does not
    units = [sn.NeuronUnit(unit_index=k, activation="sigmoid", weights=(1.0,), bias=b)
             for k, b in enumerate((40.0, -36.8, -36.8))]
    table, _ = sn.build_switch(3, {0: {0, 1, 2}})
    net = sn.assemble(units, table)
    pred = sn.forward(net, obs((0.0,)))
    slots = pred.gated_activations
    assert slots[0] == 1.0 and 0.0 < slots[1] == slots[2] < 2e-16
    assert math.fsum(slots) != functools.reduce(operator.add, slots)
    assert pred.score == functools.reduce(operator.add, slots) / 3
