"""Property tests: the gated table against the per-observation scalar oracles.

Needs `hypothesis` (the `test` extra); the module is skipped without it.
"""
import functools
import operator

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

import switchnet as sn  # noqa: E402
from switchnet import network  # noqa: E402
from switchnet.neuron import _activate, _z  # noqa: E402


FLOATS = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)
# signed zeros, subnormals, magnitudes up to 1e300, infinities and nan, as the
# column kernel's elementwise numpy ops must round and propagate them like Python floats
EDGE_FLOATS = (st.floats(min_value=-1e300, max_value=1e300)
               | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300,
                                  float("inf"), float("-inf"), float("nan")]))


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
    dataset = sn.Dataset.from_observations(dim=dim, groups=tuple((g, f"g{g}") for g in range(n_groups)),
                                           observations=observations)
    ids = draw(st.permutations(dataset.ids.tolist()))
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


def mask_without(mask, unit):
    """The mask with one unit forced inactive."""
    return sn.ActivationMask(bits=tuple(on and i != unit for i, on in enumerate(mask.bits)))


def contribution_oracle(net, ids, dataset):
    """U + 1 full gated passes, the unit ablated through its mask."""
    def accuracy(disabled):
        correct = 0
        for i in ids:
            o = dataset.observation(i)
            mask = sn.route(net.switch, o.group)
            if disabled is not None:
                mask = mask_without(mask, disabled)
            correct += int(network._gated_prediction(net, o.features, mask).predicted_label == o.label)
        return correct / len(ids)

    full = accuracy(None)
    return sn.ContributionReport(rows=tuple(
        sn.UnitContribution(unit_index=u, full_accuracy=full, ablated_accuracy=accuracy(u),
                            contribution=full - accuracy(u))
        for u in range(net.n_units)))


def heatmap_oracle(net, dataset, statistic):
    groups = sorted(dataset.groups)
    rows = [dataset.observation(i) for i in dataset.ids.tolist()]
    probes = {g: [sn.probe_activations(net, o) for o in rows if o.group == g]
              for g, _ in groups}
    # left to right from 0.0 as `_mean` sums; builtin sum() is compensated from Python 3.12 on
    stat = max if statistic == "max" else (lambda s: functools.reduce(operator.add, s, 0.0) / len(s))
    return tuple(tuple(stat([p[u] for p in probes[g]]) for g, _ in groups)
                 for u in range(net.n_units))


PROPERTY = settings(max_examples=80, deadline=None)


@st.composite
def kernel_cases(draw):
    """An activation, weights and bias, and 1-6 feature rows, all from EDGE_FLOATS."""
    dim = draw(st.integers(1, 4))
    return (draw(st.sampled_from(sn.ACTIVATIONS)), tuple(draw(EDGE_FLOATS) for _ in range(dim)),
            draw(EDGE_FLOATS),
            [tuple(draw(EDGE_FLOATS) for _ in range(dim)) for _ in range(draw(st.integers(1, 6)))])


@PROPERTY
@given(kernel_cases())
@example(("tanh", (-0.0,), -0.0, [(1.0,)]))  # the sum starts at +0.0: z is 0.0, tanh keeps its sign
def test_column_kernel_equals_scalar_kernel(case):
    activation, weights, bias, rows = case
    features = np.array(rows, dtype=float)
    with np.errstate(all="ignore"):
        z = _z(weights, bias, features.T).tolist()
    assert repr(z) == repr([_z(weights, bias, x) for x in rows])
    activated = network._activate_column(activation, np.array(z)).tolist()
    assert repr(activated) == repr([_activate(activation, v) for v in z])
    unit = sn.NeuronUnit(unit_index=0, activation=activation, weights=weights, bias=bias)
    assert repr(network._unit_column(unit, features).tolist()) == repr(
        [sn.unit_forward(unit, x) for x in rows])


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 6), st.booleans(), st.data())
def test_score_column_equals_scalar_score(n_units, n, readout, data):
    rows = [[data.draw(EDGE_FLOATS) for _ in range(n_units)] for _ in range(n)]
    active = tuple(sorted(data.draw(st.sets(st.integers(0, n_units - 1)))))
    aggregation = (sn.LinearReadout(weights=tuple(data.draw(EDGE_FLOATS) for _ in range(n_units)),
                                    bias=data.draw(EDGE_FLOATS))
                   if readout else "router-mean")
    columns = list(np.array(rows, dtype=float).T)
    score = network._score_column(aggregation, columns, active, n).tolist()
    assert repr(score) == repr([network._score(aggregation, row, active) for row in rows])


@st.composite
def gather_cases(draw):
    """Rows with gappy ids and random groups, the dataset built from them, and a
    random id list drawn from its ids (any order, possibly a strict subset)."""
    dim = draw(st.integers(1, 3))
    n_groups = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=24, unique=True))
    rows = tuple(sn.Observation(id=i, group=draw(st.integers(0, n_groups - 1)),
                                label=draw(st.integers(0, 1)),
                                features=tuple(draw(EDGE_FLOATS.filter(np.isfinite)) for _ in range(dim)))
                 for i in ids)
    dataset = sn.Dataset.from_observations(dim=dim, groups=tuple((g, f"g{g}") for g in range(n_groups)),
                                           observations=rows)
    picked = draw(st.permutations(ids))[:draw(st.integers(1, len(ids)))]
    return rows, dataset, picked


def group_blocks_oracle(rows, ids):
    """Per-id gather from the rows themselves: (group, positions, labels, feature reprs)
    per group, groups in order of first appearance."""
    by_id = {o.id: o for o in rows}
    members = {}
    for position, obs_id in enumerate(ids):
        members.setdefault(by_id[obs_id].group, []).append((position, by_id[obs_id]))
    return [(group, [p for p, _ in block], [o.label for _, o in block],
             [repr(o.features) for _, o in block]) for group, block in members.items()]


@PROPERTY
@given(gather_cases())
def test_group_blocks_equal_per_id_gather(case):
    rows, dataset, ids = case
    net = sn.assemble(
        [sn.NeuronUnit(unit_index=0, activation="sigmoid", weights=(0.0,) * dataset.dim, bias=0.0)],
        sn.build_switch(1, {}, "all-active")[0])
    blocks = [(block.group, block.positions.tolist(), block.labels.tolist(),
               [repr(tuple(f)) for f in block.features.tolist()])
              for block in network._group_blocks(net, ids, dataset)]
    assert blocks == group_blocks_oracle(rows, ids)


@PROPERTY
@given(cases())
def test_gated_table_rows_equal_forward(case):
    net, dataset, ids = case
    positions = []
    for block, active, columns in network._gated_table(net, ids, dataset):
        positions += block.positions.tolist()
        gated = np.column_stack(columns).tolist()
        for position, vector, label in zip(block.positions, gated, block.labels.tolist()):
            obs = dataset.observation(ids[position])
            pred = sn.forward(net, obs)
            assert obs.group == block.group and label == obs.label
            assert repr(tuple(vector)) == repr(pred.gated_activations)
            assert active == pred.active_mask.active_indices()
    assert sorted(positions) == list(range(len(ids)))


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
@given(cases(), st.sampled_from(sn.analysis.STATISTICS))
def test_heatmap_equals_per_id_probes(case, statistic):
    net, dataset, _ = case
    matrix = sn.heatmap(net, dataset.ids.tolist(), dataset, statistic)
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
