"""Property tests: the gated table against the per-observation scalar oracle.

Needs `hypothesis` (the `test` extra); the module is skipped without it.
"""
import collections
import contextlib
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import switchnet as sn  # noqa: E402
from switchnet import network  # noqa: E402
from switchnet.neuron import _activate, _z  # noqa: E402


FLOATS = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)
# signed zeros, subnormals and magnitudes up to 1e300: the values a LinearReadout
# holds (it stores -0.0 as 0.0)
FINITE_EDGE_FLOATS = (st.floats(min_value=-1e300, max_value=1e300)
                      | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300]))
# and the infinities and nan, as the column kernel's elementwise numpy ops must
# round and propagate them like Python floats
EDGE_FLOATS = FINITE_EDGE_FLOATS | st.sampled_from([float("inf"), float("-inf"), float("nan")])
# readout logits packed about zero, where a sign rule and the sigmoid's score can
# disagree: exp(-2**-54) rounds to 1.0, so its score is exactly 0.5
NEAR_ZERO = [-0.0, 5e-324, -5e-324, -2**-53, -2**-54, -1e-6, -1.0000001e-6,
             float("inf"), float("-inf"), float("nan")]
LOGITS = st.sampled_from(NEAR_ZERO) | st.floats(min_value=-2e-6, max_value=1e-15)


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


def fallback_case(fallback, readout=False):
    """Group 0 routed to unit 1, group 1 to the fallback, and the ids of both groups."""
    units = [sn.NeuronUnit(unit_index=0, activation="sigmoid", weights=(0.5, -1.0), bias=0.25),
             sn.NeuronUnit(unit_index=1, activation="tanh", weights=(-0.75, 0.5), bias=-0.1)]
    switch, _ = sn.build_switch(2, {0: {1}}, fallback)
    aggregation = sn.LinearReadout(weights=(1.5, -2.0), bias=0.3) if readout else "router-mean"
    observations = (sn.Observation(id=0, group=0, label=1, features=(0.2, -1.3)),
                    sn.Observation(id=1, group=1, label=0, features=(1.1, 0.4)),
                    sn.Observation(id=2, group=1, label=1, features=(-2.0, 3.5)))
    dataset = sn.Dataset.from_observations(dim=2, groups=((0, "g0"), (1, "g1")),
                                           observations=observations)
    return sn.assemble(units, switch, aggregation), dataset, [2, 0, 1]


PROPERTY = settings(max_examples=80, deadline=None)


@st.composite
def kernel_cases(draw):
    """1-4 units, each with its own activation and weights and bias from
    EDGE_FLOATS, and 1-6 feature rows from EDGE_FLOATS."""
    dim = draw(st.integers(1, 4))
    units = [(draw(st.sampled_from(sn.ACTIVATIONS)), tuple(draw(EDGE_FLOATS) for _ in range(dim)),
              draw(EDGE_FLOATS)) for _ in range(draw(st.integers(1, 4)))]
    return units, [tuple(draw(EDGE_FLOATS) for _ in range(dim)) for _ in range(draw(st.integers(1, 6)))]


@PROPERTY
@given(kernel_cases())
@example(([("tanh", (-0.0,), -0.0)], [(1.0,)]))  # the sum starts at +0.0: z is 0.0, tanh keeps its sign
@example(([("relu", (float("inf"), 1.0), 0.0), ("sigmoid", (-0.0, 2.0), -0.0), ("tanh", (1.0, -0.0), 0.5)],
          [(0.0, -0.0), (-0.0, 5e-324), (1e300, -1e300)]))  # inf * 0.0 is nan; mixed activations
def test_column_kernel_equals_scalar_kernel(case):
    params, rows = case
    features = np.array(rows, dtype=float)
    for activation, weights, bias in params:
        with np.errstate(all="ignore"):
            z = _z(weights, bias, features.T).tolist()
        assert repr(z) == repr([_z(weights, bias, x) for x in rows])
        activated = network._activate_column(activation, np.array(z)).tolist()
        assert repr(activated) == repr([_activate(activation, v) for v in z])
    # the k-unit table: row k is unit k's `unit_forward` on every feature row
    units = [sn.NeuronUnit(unit_index=k, activation=activation, weights=weights, bias=bias)
             for k, (activation, weights, bias) in enumerate(params)]
    table = network._unit_table(units, features)
    assert table.shape == (len(units), len(rows))
    assert repr(table.tolist()) == repr([[sn.unit_forward(unit, x) for x in rows] for unit in units])


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 6), st.booleans(), st.data())
def test_score_column_equals_scalar_score(n_units, n, readout, data):
    # gated rows: an inactive slot holds 0.0, which the oracle's dense logit reads
    # and the column's does not; a relu overflow can still bring inf or nan to an active slot
    active = tuple(sorted(data.draw(st.sets(st.integers(0, n_units - 1)))))
    rows = [[data.draw(EDGE_FLOATS) if i in active else 0.0 for i in range(n_units)] for _ in range(n)]
    aggregation = (sn.LinearReadout(weights=tuple(data.draw(FINITE_EDGE_FLOATS) for _ in range(n_units)),
                                    bias=data.draw(FINITE_EDGE_FLOATS))
                   if readout else "router-mean")
    columns = list(np.array(rows, dtype=float).T)
    score = network._score_column(aggregation, columns, active, n).tolist()
    assert repr(score) == repr([oracle.score(aggregation, row, active) for row in rows])


def logit_case(logits):
    """A one-unit readout of weight 1.0 and bias 0.0, so each row's logit is its
    gated value (-0.0 summed from 0.0 gives 0.0), every row labelled 1."""
    return sn.LinearReadout(weights=(1.0,), bias=0.0), (0,), [[z] for z in logits], [1] * len(logits)


@st.composite
def label_cases(draw):
    """(aggregation, active, rows of gated values, true labels): a router mean or a
    readout of finite weights over EDGE_FLOATS rows, or a `logit_case` whose
    logits are drawn from LOGITS. A row holds 0.0 in each inactive slot, as a
    gated row does."""
    if draw(st.booleans()):
        aggregation, active, rows, _ = logit_case(draw(st.lists(LOGITS, min_size=1, max_size=12)))
    else:
        values = EDGE_FLOATS | LOGITS
        weights = FINITE_EDGE_FLOATS | LOGITS.filter(math.isfinite)
        n_units = draw(st.integers(1, 4))
        active = tuple(sorted(draw(st.sets(st.integers(0, n_units - 1)))))
        aggregation = draw(st.sampled_from(["router-mean", sn.LinearReadout(
            weights=tuple(draw(weights) for _ in range(n_units)), bias=draw(weights))]))
        rows = [[draw(values) if i in active else 0.0 for i in range(n_units)]
                for _ in range(draw(st.integers(1, 6)))]
    return aggregation, active, rows, [draw(st.integers(0, 1)) for _ in rows]


@PROPERTY
@given(label_cases())
@example(logit_case(NEAR_ZERO))
def test_labels_and_hits_equal_scalar_score_threshold(case):
    aggregation, active, rows, truth = case
    expected = [oracle.score(aggregation, row, active) >= 0.5 for row in rows]
    columns = list(np.array(rows, dtype=float).T)
    assert network._label_column(aggregation, columns, active, len(rows)).tolist() == expected
    assert network._hits(aggregation, columns, active, np.array(truth)) == sum(
        int(label) == t for label, t in zip(expected, truth))


@st.composite
def probe_cases(draw):
    """An activation and 1-4 equal-length columns of logits from EDGE_FLOATS."""
    n = draw(st.integers(1, 20))
    return draw(st.sampled_from(sn.ACTIVATIONS)), [[draw(EDGE_FLOATS) for _ in range(n)]
                                                   for _ in range(draw(st.integers(1, 4)))]


@PROPERTY
@given(probe_cases())
@example(("tanh", [[-0.0, 2.0], [-0.0, -0.0]]))  # tanh(-0.0) is -0.0; a running total from 0.0 makes its mean 0.0
def test_heatmap_means_equal_left_to_right_mean(case):
    activation, logits = case
    probes = [network._activate_column(activation, np.array(column)) for column in logits]
    assert repr(network._means(probes)) == repr([network._mean(p.tolist()) for p in probes])


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
@example(fallback_case("none-active"))
@example(fallback_case("none-active", readout=True))
@example(fallback_case("all-active"))
@example(fallback_case("all-active", readout=True))
def test_gated_table_rows_equal_forward(case):
    # every gated row, and `forward` as a one-row block, equal the scalar pass,
    # whether the gated columns are computed alone or taken from the probe table
    net, dataset, ids = case
    for probe in (False, True):
        positions = []
        for block, active, columns, probes in network._gated_blocks(net, ids, dataset, probe):
            positions += block.positions.tolist()
            gated = np.zeros((net.n_units, len(block.positions)))
            for i in active:  # the active units' columns alone; an inactive slot is 0.0
                gated[i] = columns[i]
            gated = gated.T.tolist()
            assert (probes is None) != probe
            probe_rows = probes.T.tolist() if probe else [None] * len(gated)
            for position, vector, label, probe_row in zip(block.positions, gated, block.labels.tolist(),
                                                          probe_rows):
                obs = dataset.observation(ids[position])
                pred = oracle.forward(net, obs)
                assert obs.group == block.group and label == obs.label
                assert repr(tuple(vector)) == repr(pred.gated_activations)
                assert active == pred.active
                assert repr(sn.forward(net, obs)) == repr(pred)
                if probe:
                    assert repr(tuple(probe_row)) == repr(oracle.probes(net, obs))
        assert sorted(positions) == list(range(len(ids)))


@PROPERTY
@given(cases(), st.sampled_from(sn.network.SET_KINDS), st.sampled_from(sn.analysis.STATISTICS))
@example(fallback_case("none-active"), "non-overlapping", "mean")
@example(fallback_case("none-active", readout=True), "non-overlapping", "max")
@example(fallback_case("all-active"), "overlapping", "max")
@example(fallback_case("all-active", readout=True), "overlapping", "mean")
def test_one_pass_equals_evaluate_contribution_and_heatmap(case, set_kind, statistic):
    # the pass over the whole dataset (every group present, as the heatmap needs),
    # and without a statistic over the case's own id list, equal the scalar passes
    net, dataset, ids = case
    every = dataset.ids.tolist()
    metrics, report, matrix = sn.analysis.readings(net, every, dataset, set_kind, statistic)
    assert repr(metrics) == repr(oracle.evaluate(net, every, dataset, set_kind))
    assert repr(report) == repr(oracle.contribution(net, every, dataset))
    assert repr(matrix.values) == repr(oracle.heatmap(net, dataset, statistic))
    assert matrix.statistic == statistic
    metrics, report, none = sn.analysis.readings(net, ids, dataset, set_kind)
    assert repr(metrics) == repr(oracle.evaluate(net, ids, dataset, set_kind))
    assert repr(report) == repr(oracle.contribution(net, ids, dataset))
    assert none is None


@contextlib.contextmanager
def kernel_calls():
    """Record each kernel call as (unit indices, rows)."""
    calls = []
    table = network._unit_table

    def spy(units, features):
        calls.append((tuple(unit.unit_index for unit in units), len(features)))
        return table(units, features)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_unit_table", spy)
        yield calls


def routed_calls(net, ids, dataset) -> list:
    """One (active units, rows) per group of the id list with an active unit:
    what the gated path may ask the kernel."""
    sizes = collections.Counter(dataset.observation(i).group for i in ids)
    return sorted((sn.route(net.switch, g), n) for g, n in sizes.items() if sn.route(net.switch, g))


@PROPERTY
@given(cases())
@example(fallback_case("none-active"))
@example(fallback_case("none-active", readout=True))
@example(fallback_case("all-active"))
@example(fallback_case("all-active", readout=True))
def test_gated_path_gives_the_kernel_active_units_only(case):
    # evaluate, neuron_contribution, readings without a statistic, fit_readout and
    # forward ask the kernel for each group's active units once
    net, dataset, ids = case
    for gated in (lambda: sn.evaluate(net, ids, dataset, "overlapping"),
                  lambda: sn.neuron_contribution(net, ids, dataset),
                  lambda: sn.analysis.readings(net, ids, dataset, "overlapping", statistic=None)):
        with kernel_calls() as calls:
            gated()
        assert sorted(calls) == routed_calls(net, ids, dataset)
    readout_net = sn.assemble(net.units, net.switch, "linear-readout")
    with kernel_calls() as calls:
        try:
            sn.fit_readout(readout_net, ids, dataset, sn.TrainConfig(seed=0, epochs=1))
        except sn.NetworkError:  # a diverging readout fails after the gated pass
            pass
    assert sorted(calls) == routed_calls(net, ids, dataset)
    for obs in map(dataset.observation, ids):
        with kernel_calls() as calls:
            sn.forward(net, obs)
        assert calls == routed_calls(net, [obs.id], dataset)


@PROPERTY
@given(cases(), st.sampled_from(sn.analysis.STATISTICS))
@example(fallback_case("none-active"), "max")
@example(fallback_case("all-active", readout=True), "mean")
def test_probed_path_gives_the_kernel_every_unit_once_per_group(case, statistic):
    # heatmap and readings with a statistic ask the kernel for every unit once per
    # group; the gated columns are the probe table's active rows, never a second call
    net, dataset, _ = case
    ids = dataset.ids.tolist()
    sizes = collections.Counter(dataset.observation(i).group for i in ids)
    every_unit = sorted((tuple(range(net.n_units)), n) for n in sizes.values())
    for probed in (lambda: sn.heatmap(net, ids, dataset, statistic),
                   lambda: sn.analysis.readings(net, ids, dataset, "non-overlapping", statistic)):
        with kernel_calls() as calls:
            probed()
        assert sorted(calls) == every_unit


@PROPERTY
@given(cases(), st.sampled_from(sn.network.SET_KINDS))
def test_evaluate_equals_per_id_forward(case, set_kind):
    net, dataset, ids = case
    assert repr(sn.evaluate(net, ids, dataset, set_kind)) == repr(
        oracle.evaluate(net, ids, dataset, set_kind))


@PROPERTY
@given(cases())
def test_contribution_equals_brute_force_ablation(case):
    net, dataset, ids = case
    assert repr(sn.neuron_contribution(net, ids, dataset)) == repr(
        oracle.contribution(net, ids, dataset))


@PROPERTY
@given(cases(), st.sampled_from(sn.analysis.STATISTICS))
def test_heatmap_equals_per_id_probes(case, statistic):
    net, dataset, _ = case
    matrix = sn.heatmap(net, dataset.ids.tolist(), dataset, statistic)
    assert repr(matrix.values) == repr(oracle.heatmap(net, dataset, statistic))


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
    for obs in map(dataset.observation, ids):
        pred = sn.forward(nan_net, obs)
        assert repr(pred) == repr(oracle.forward(nan_net, obs)) == repr(sn.forward(net, obs))
        assert pred.gated_activations[dead] == 0.0


# readout start weights an active-slot fit must not mistake: -0.0, which the
# readout stores as 0.0 (a dense update with g < 0 would turn it into 0.0),
# subnormals, and +-1e300, far past where the sigmoid saturates
START_WEIGHTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300]) | FLOATS


@st.composite
def readout_fits(draw):
    """A linear-readout network of 4 units under `none-active`, a dataset of
    groups 0..3 and a non-empty id list, and a train config. Group 0 is routed
    to one unit and group 1 to three, group 2 to 1-3 units and group 3 to none;
    unit 3 is routed by no group. A relu unit's active value is often exactly
    0.0. Some learning rates diverge."""
    dim = draw(st.integers(1, 2))
    switch, _ = sn.build_switch(4, {0: {draw(st.integers(0, 2))}, 1: {0, 1, 2},
                                    2: draw(st.sets(st.integers(0, 2), min_size=1))}, "none-active")
    units = [sn.NeuronUnit(unit_index=k, activation=draw(st.sampled_from(sn.ACTIVATIONS)),
                           weights=tuple(draw(FLOATS) for _ in range(dim)), bias=draw(FLOATS))
             for k in range(4)]
    readout = sn.LinearReadout(weights=tuple(draw(START_WEIGHTS) for _ in range(4)), bias=draw(FLOATS))
    observations = tuple(
        sn.Observation(id=i, group=i if i < 4 else draw(st.integers(0, 3)), label=draw(st.integers(0, 1)),
                       features=tuple(draw(FLOATS) for _ in range(dim)))
        for i in range(draw(st.integers(4, 14))))
    dataset = sn.Dataset.from_observations(dim=dim, groups=tuple((g, f"g{g}") for g in range(4)),
                                           observations=observations)
    ids = draw(st.permutations(dataset.ids.tolist()))[:draw(st.integers(1, len(observations)))]
    config = sn.TrainConfig(learning_rate=draw(st.sampled_from([0.1, 2.0, 1e300])),
                            epochs=draw(st.integers(1, 3)), loss=draw(st.sampled_from(sn.LOSSES)),
                            seed=draw(st.integers(0, 3)), shuffle=draw(st.booleans()))
    return sn.assemble(units, switch, readout), dataset, ids, config


def relu_zero_fit():
    """A relu unit active for group 0 whose activation is exactly 0.0 on every row,
    beside units routed to one and three slots, from start weights given as -0.0
    (stored as 0.0)."""
    units = [sn.NeuronUnit(unit_index=0, activation="relu", weights=(-1.0,), bias=-0.5),
             sn.NeuronUnit(unit_index=1, activation="sigmoid", weights=(0.75,), bias=0.1),
             sn.NeuronUnit(unit_index=2, activation="tanh", weights=(-1.5,), bias=0.2),
             sn.NeuronUnit(unit_index=3, activation="sigmoid", weights=(1.0,), bias=0.0)]
    switch, _ = sn.build_switch(4, {0: {0}, 1: {0, 1, 2}, 2: {1}}, "none-active")
    observations = tuple(sn.Observation(id=i, group=i % 4, label=i % 2, features=(0.25 * i,))
                         for i in range(12))
    dataset = sn.Dataset.from_observations(dim=1, groups=tuple((g, f"g{g}") for g in range(4)),
                                           observations=observations)
    net = sn.assemble(units, switch, sn.LinearReadout(weights=(-0.0, 0.5, -0.0, 0.0), bias=0.0))
    return net, dataset, list(range(12)), sn.TrainConfig(learning_rate=0.5, epochs=3, seed=1)


def fit_outcome(fit):
    """The fitted readout's repr, or the message of the error the fit raised."""
    try:
        return repr(fit())
    except sn.NetworkError as exc:
        return str(exc)


def unrouted_start_fit(weight: float):
    """`relu_zero_fit` with `weight` as the start weight of unit 3, which no group
    routes, so no row holds it."""
    net, dataset, ids, config = relu_zero_fit()
    readout = sn.LinearReadout(weights=(*net.aggregation.weights[:3], weight), bias=0.0)
    return sn.assemble(net.units, net.switch, readout), dataset, ids, config


@PROPERTY
@given(readout_fits())
@example(relu_zero_fit())
@example(unrouted_start_fit(-0.0))
def test_fit_readout_equals_dense_oracle_sgd(case):
    # the active-slot fit gives the per-step-checked SGD's bits over the scalar
    # pass's dense gated rows, and a diverging fit names the same faulty step
    net, dataset, ids, config = case
    rows = [(oracle.forward(net, obs).gated_activations, obs.label) for obs in map(dataset.observation, ids)]

    def dense():
        readout = net.aggregation
        try:
            weights, bias, _ = oracle.sgd(readout.weights, readout.bias, rows, "sigmoid", config, "readout")
        except sn.TrainingError as exc:
            raise sn.NetworkError(f"readout: {exc}") from None
        return sn.LinearReadout(weights=tuple(weights), bias=bias)
    assert fit_outcome(lambda: sn.fit_readout(net, ids, dataset, config).aggregation) == fit_outcome(dense)
