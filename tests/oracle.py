"""Reference implementations the fast paths are checked against.

The per-observation scalar pass: one observation at a time, on Python floats,
each active unit's gated value is `unit_forward`, the router mean sums left to
right from 0.0 and the readout is `_sigmoid` of `_z` over the gated vector.
Evaluation, ablation and heatmap probes are built from those per-observation
values only, so they share no code with the column kernel in
`switchnet.network` beyond `route`.

The per-step-checked SGD: `sgd` checks the loss and the parameters after every
step, the reference for `neuron._sgd`, which checks once per epoch.

The row-by-row dataset scan: `dataset_fault` applies a dataset's row rules one
row at a time, with a set of the ids seen, the reference for the column rules
`Dataset` and `load_dataset` share.
"""
import functools
import math
import operator

import switchnet as sn
from switchnet.neuron import _loss_dz, _sigmoid, _z
from switchnet.seeding import rng_for


def mean(values) -> float:
    """Left to right from 0.0; builtin sum() is compensated from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0.0) / len(values)


def score(aggregation, gated, active) -> float:
    if isinstance(aggregation, sn.LinearReadout):
        return _sigmoid(_z(aggregation.weights, aggregation.bias, gated))
    return mean([gated[i] for i in active]) if active else 0.5


def gated_prediction(net, features, active) -> sn.Prediction:
    """The prediction with exactly the units in `active` switched on."""
    gated = [0.0] * net.n_units
    for i in active:
        gated[i] = sn.unit_forward(net.units[i], features)
    s = score(net.aggregation, gated, active)
    return sn.Prediction(score=s, predicted_label=1 if s >= 0.5 else 0, active=tuple(active),
                         gated_activations=tuple(gated))


def forward(net, obs) -> sn.Prediction:
    if len(obs.features) != net.dim:
        raise sn.NetworkError(f"observation {obs.id} has {len(obs.features)} features, expected {net.dim}")
    return gated_prediction(net, obs.features, sn.route(net.switch, obs.group))


def probes(net, obs) -> tuple:
    """Every unit's ungated activation on the observation."""
    return tuple(sn.unit_forward(unit, obs.features) for unit in net.units)


def evaluate(net, ids, dataset, set_kind) -> sn.Metrics:
    group_n, group_correct, correct = {}, {}, 0
    for i in ids:
        o = dataset.observation(i)
        hit = int(forward(net, o).predicted_label == o.label)
        correct += hit
        group_n[o.group] = group_n.get(o.group, 0) + 1
        group_correct[o.group] = group_correct.get(o.group, 0) + hit
    return sn.Metrics(accuracy=correct / len(ids),
                      per_group_accuracy={g: group_correct[g] / group_n[g] for g in sorted(group_n)},
                      n=len(ids), set_kind=set_kind)


def contribution(net, ids, dataset) -> sn.ContributionReport:
    """U + 1 full gated passes, the ablated unit dropped from each active tuple."""
    def accuracy(disabled):
        correct = 0
        for i in ids:
            o = dataset.observation(i)
            active = tuple(u for u in sn.route(net.switch, o.group) if u != disabled)
            correct += int(gated_prediction(net, o.features, active).predicted_label == o.label)
        return correct / len(ids)

    full = accuracy(None)
    return sn.ContributionReport(rows=tuple(
        sn.UnitContribution(unit_index=u, full_accuracy=full, ablated_accuracy=accuracy(u),
                            contribution=full - accuracy(u))
        for u in range(net.n_units)))


def heatmap(net, dataset, statistic) -> tuple:
    """The heatmap's values over every id of the dataset, from per-observation probes."""
    groups = sorted(dataset.groups)
    rows = [dataset.observation(i) for i in dataset.ids.tolist()]
    by_group = {g: [probes(net, o) for o in rows if o.group == g] for g, _ in groups}
    stat = max if statistic == "max" else mean
    return tuple(tuple(stat([p[u] for p in by_group[g]]) for g, _ in groups)
                 for u in range(net.n_units))


def sgd(weights, bias, rows, activation, config, stream):
    """`neuron._sgd` with a finiteness check after every step: the same visiting
    order, update and epoch losses, and a TrainingError at the first faulty step."""
    weights = list(weights)
    n = len(rows)
    lr = config.learning_rate
    epoch_losses = []
    shuffler = rng_for(config.seed, "shuffle", stream)
    for epoch in range(config.epochs):
        order = shuffler.permutation(n).tolist() if config.shuffle else range(n)
        total = 0.0
        for step, idx in enumerate(order):
            x, y = rows[idx]
            z = _z(weights, bias, x)
            loss, dz = _loss_dz(activation, config.loss, z, y)
            if not math.isfinite(loss):
                raise sn.TrainingError(f"non-finite loss at epoch {epoch} step {step}")
            g = lr * dz
            weights = [w - g * xi for w, xi in zip(weights, x)]
            bias = bias - g
            if not (math.isfinite(bias) and all(map(math.isfinite, weights))):
                raise sn.TrainingError(f"non-finite parameters at epoch {epoch} step {step}")
            total += loss
        epoch_losses.append(total / n)
    return weights, bias, epoch_losses


def dataset_fault(ids, groups, labels, features, n_groups):
    """(row, message) of the first faulty row of a dataset over groups 0..n_groups-1,
    or None: on each row, in order, a non-negative id and group, a declared group,
    a 0/1 label, finite features and an id no earlier row has."""
    seen = set()
    for row, (i, g, label, x) in enumerate(zip(ids, groups, labels, features)):
        if i < 0 or g < 0:
            return row, f"observation id/group must be non-negative, got id={i} group={g}"
        if g >= n_groups:
            return row, f"observation {i} references unknown group {g}"
        if label not in (0, 1):
            return row, f"invalid label {label!r} for observation {i}"
        if not all(map(math.isfinite, x)):
            return row, f"observation {i}: non-finite feature"
        if i in seen:
            return row, f"duplicate observation id {i}"
        seen.add(i)
    return None
