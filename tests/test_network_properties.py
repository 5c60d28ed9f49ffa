"""Property tests: the gated table against the per-observation scalar oracles.

Needs `hypothesis` (the `test` extra); the module is skipped without it.
"""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import switchnet as sn  # noqa: E402
from switchnet import network  # noqa: E402
from switchnet.neuron import _loss_from_z  # noqa: E402


FLOATS = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)


@st.composite
def cases(draw, dead_nan_unit=False):
    """A random small network, a dataset covering every group, and a non-empty id list.

    With `dead_nan_unit`, the last unit is in no switch entry and no fallback
    reaches it; the case pairs a network where it carries NaN weights with
    the same network where it is finite.
    """
    dim = draw(st.integers(1, 3))
    n_groups = draw(st.integers(1, 4))
    n_live = draw(st.integers(1, 4))
    n_units = n_live + int(dead_nan_unit)
    fallbacks = ("error", "none-active") if dead_nan_unit else sn.switching.FALLBACKS
    fallback = draw(st.sampled_from(fallbacks))
    live = st.sets(st.integers(0, n_live - 1), min_size=1)
    entries = {}
    for g in range(n_groups):
        units = draw(live if fallback == "error" else st.none() | live)
        if units is not None:
            entries[g] = units
    switch, _ = sn.build_switch(n_units, entries, fallback)
    units = [sn.NeuronUnit(unit_index=k, activation=draw(st.sampled_from(sn.ACTIVATIONS)),
                           weights=tuple(draw(FLOATS) for _ in range(dim)), bias=draw(FLOATS))
             for k in range(n_units)]
    if draw(st.booleans()):
        aggregation = sn.LinearReadout(weights=tuple(draw(FLOATS) for _ in range(n_units)),
                                       bias=draw(FLOATS))
    else:
        aggregation = "router-mean"
    n_obs = draw(st.integers(n_groups, n_groups + 10))
    observations = tuple(
        sn.Observation(id=i, group=i if i < n_groups else draw(st.integers(0, n_groups - 1)),
                       label=draw(st.integers(0, 1)),
                       features=tuple(draw(FLOATS) for _ in range(dim)))
        for i in range(n_obs))
    dataset = sn.Dataset(dim=dim, groups=tuple((g, f"g{g}") for g in range(n_groups)),
                         observations=observations)
    ids = draw(st.permutations(dataset.ids()))
    ids = ids[:draw(st.integers(1, len(ids)))]
    net = sn.assemble(units, switch, aggregation)
    if not dead_nan_unit:
        return net, dataset, ids
    dead = sn.NeuronUnit(unit_index=n_live, activation=units[-1].activation,
                         weights=(float("nan"),) * dim, bias=float("nan"))
    nan_net = sn.assemble(units[:-1] + [dead], switch, aggregation)
    return nan_net, net, dataset, ids


def evaluate_oracle(net, ids, dataset, set_kind):
    group_n, group_correct, correct = {}, {}, 0
    for i in ids:
        o = dataset.observation(i)
        hit = int(sn.forward(net, o).predicted_label == o.label)
        correct += hit
        group_n[o.group] = group_n.get(o.group, 0) + 1
        group_correct[o.group] = group_correct.get(o.group, 0) + hit
    return sn.Metrics(accuracy=correct / len(ids),
                      per_group_accuracy={g: group_correct[g] / group_n[g] for g in sorted(group_n)},
                      n=len(ids), set_kind=set_kind)


def contribution_oracle(net, ids, dataset):
    """U + 1 full gated passes, the unit ablated through its mask."""
    def accuracy(disabled):
        correct = 0
        for i in ids:
            o = dataset.observation(i)
            mask = sn.route(net.switch, o.group)
            if disabled is not None:
                mask = mask.without(disabled)
            correct += int(network._gated_prediction(net, o.features, mask).predicted_label == o.label)
        return correct / len(ids)

    full = accuracy(None)
    return sn.ContributionReport(rows=tuple(
        sn.UnitContribution(unit_index=u, full_accuracy=full, ablated_accuracy=accuracy(u),
                            contribution=full - accuracy(u))
        for u in range(net.n_units)))


def heatmap_oracle(net, dataset, statistic):
    groups = sorted(dataset.groups)
    probes = {g: [sn.probe_activations(net, o) for o in dataset.observations if o.group == g]
              for g, _ in groups}
    stat = max if statistic == "max" else (lambda s: sum(s) / len(s))
    return tuple(tuple(stat([p[u] for p in probes[g]]) for g, _ in groups)
                 for u in range(net.n_units))


PROPERTY = settings(max_examples=80, deadline=None)


@PROPERTY
@given(cases())
def test_gated_table_rows_equal_forward(case):
    net, dataset, ids = case
    table = network._gated_table(net, ids, dataset)
    for i, obs, gated, active in zip(ids, table.observations, table.gated, table.active):
        pred = sn.forward(net, dataset.observation(i))
        assert obs.id == i
        assert repr(tuple(gated)) == repr(pred.gated_activations)
        assert active == pred.active_mask.active_indices()


@PROPERTY
@given(cases(), st.sampled_from(sn.network.SET_KINDS))
def test_evaluate_equals_per_id_forward(case, set_kind):
    net, dataset, ids = case
    assert repr(sn.evaluate(net, ids, dataset, set_kind)) == repr(
        evaluate_oracle(net, ids, dataset, set_kind))


@PROPERTY
@given(cases())
def test_contribution_equals_brute_force_ablation(case):
    net, dataset, ids = case
    assert repr(sn.neuron_contribution(net, ids, dataset)) == repr(
        contribution_oracle(net, ids, dataset))


@PROPERTY
@given(cases())
def test_readout_mean_loss_equals_per_id_forward(case):
    net, dataset, ids = case
    assume(isinstance(net.aggregation, sn.LinearReadout))
    total = 0.0
    for i in ids:
        o = dataset.observation(i)
        z = sum(v * a for v, a in zip(net.aggregation.weights, sn.forward(net, o).gated_activations))
        total += _loss_from_z(z + net.aggregation.bias, o.label, "bce", "sigmoid")
    assert repr(sn.readout_mean_loss(net, ids, dataset)) == repr(total / len(ids))


@PROPERTY
@given(cases(), st.sampled_from(sn.analysis.STATISTICS))
def test_heatmap_equals_per_id_probes(case, statistic):
    net, dataset, _ = case
    matrix = sn.heatmap(net, dataset.ids(), dataset, statistic)
    assert repr(matrix.values) == repr(heatmap_oracle(net, dataset, statistic))


@PROPERTY
@given(cases(dead_nan_unit=True))
def test_nan_unit_no_group_activates_changes_nothing(case):
    nan_net, net, dataset, ids = case
    dead = nan_net.n_units - 1
    assert repr(sn.evaluate(nan_net, ids, dataset, "overlapping")) == repr(
        sn.evaluate(net, ids, dataset, "overlapping"))
    report = sn.neuron_contribution(nan_net, ids, dataset)
    assert repr(report) == repr(sn.neuron_contribution(net, ids, dataset))
    assert report.rows[dead].contribution == 0.0
