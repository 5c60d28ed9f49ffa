import csv
import functools
import math
import operator
from xml.sax.saxutils import escape

import pytest

import switchnet as sn


def parse_heatmap_csv(path):
    """(column labels, values) of an exported heatmap CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return tuple(header[1:]), tuple(tuple(float(v) for v in r[1:]) for r in rows)


def zero_units(n, dim=2):
    return [sn.NeuronUnit(unit_index=k, activation="sigmoid", weights=(0.0,) * dim, bias=0.0)
            for k in range(n)]


def identity_switch(n):
    table, _ = sn.build_switch(n, {g: {g} for g in range(n)})
    return table


def five_group_dataset(count=6, seed=17):
    means = [(-2.0, -1.0), (-2.0, 1.0), (2.0, -1.0), (2.0, 1.0), (0.0, 2.2)]
    specs = [sn.GroupSpec(name=f"segment {k}", mean=means[k], scale=(0.3, 0.3),
                          label_rule=sn.LabelRule("all-one"), count=count) for k in range(5)]
    return sn.generate_synthetic(specs, seed=seed)


def matrix_of(values, statistic="mean"):
    return sn.HeatmapMatrix(values=tuple(tuple(row) for row in values),
                            row_labels=tuple(f"unit {i}" for i in range(len(values))),
                            col_labels=tuple(f"col {j}" for j in range(len(values[0]))),
                            statistic=statistic)


# ------------------------------------------------------------------- heatmap

def test_heatmap_zero_weight_units_all_half():
    dataset = five_group_dataset()
    net = sn.assemble(zero_units(5), identity_switch(5))
    matrix = sn.heatmap(net, dataset.ids.tolist(), dataset)
    assert all(v == 0.5 for row in matrix.values for v in row)
    assert matrix.col_labels == tuple(f"segment {k}" for k in range(5))


def test_heatmap_max_dominates_mean():
    dataset = five_group_dataset()
    net = sn.assemble([sn.init_unit(2, "sigmoid", k, seed=5) for k in range(5)],
                      identity_switch(5))
    mean_matrix = sn.heatmap(net, dataset.ids.tolist(), dataset, "mean")
    max_matrix = sn.heatmap(net, dataset.ids.tolist(), dataset, "max")
    for mean_row, max_row in zip(mean_matrix.values, max_matrix.values):
        for m, M in zip(mean_row, max_row):
            assert M >= m


def test_heatmap_mean_sigmoid_bounded():
    dataset = five_group_dataset()
    net = sn.assemble([sn.init_unit(2, "sigmoid", k, seed=5) for k in range(5)],
                      identity_switch(5))
    matrix = sn.heatmap(net, dataset.ids.tolist(), dataset, "mean")
    assert all(0.0 <= v <= 1.0 for row in matrix.values for v in row)


def test_heatmap_mean_sums_left_to_right():
    # probe activations (1.0, ~1e-16, ~1e-16): the left-to-right sum stays 1.0
    unit = sn.NeuronUnit(unit_index=0, activation="sigmoid", weights=(1.0,), bias=0.0)
    observations = tuple(sn.Observation(id=i, group=0, label=1, features=(x,))
                         for i, x in enumerate((40.0, -36.8, -36.8)))
    dataset = sn.Dataset.from_observations(dim=1, groups=((0, "only"),), observations=observations)
    net = sn.assemble([unit], identity_switch(1))
    probes = [sn.unit_forward(unit, o.features) for o in observations]
    assert math.fsum(probes) != functools.reduce(operator.add, probes)
    matrix = sn.heatmap(net, dataset.ids.tolist(), dataset, "mean")
    assert matrix.values == ((functools.reduce(operator.add, probes) / 3,),)


def test_heatmap_deterministic():
    dataset = five_group_dataset()
    net = sn.assemble([sn.init_unit(2, "sigmoid", k, seed=5) for k in range(5)],
                      identity_switch(5))
    assert sn.heatmap(net, dataset.ids.tolist(), dataset) == sn.heatmap(net, dataset.ids.tolist(), dataset)


def test_heatmap_empty_group_column_rejected():
    dataset = five_group_dataset()
    net = sn.assemble(zero_units(5), identity_switch(5))
    ids_without_group_0 = dataset.ids[dataset.row_groups != 0].tolist()
    with pytest.raises(sn.AnalysisError, match=r"\[0\]"):
        sn.heatmap(net, ids_without_group_0, dataset)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_heatmap_matrix_refuses_a_non_finite_value(value):
    with pytest.raises(sn.AnalysisError, match=f"^heatmap value {value} at 'unit 1', 'col 0' is not finite$"):
        matrix_of([[0.5, 0.5], [value, 0.5]])


def test_heatmap_uses_ungated_probe():
    # a unit the switch never routes still gets a full heatmap row
    dataset = five_group_dataset()
    table, _ = sn.build_switch(5, {g: {0} for g in range(5)})  # everything routes to unit 0
    net = sn.assemble([sn.init_unit(2, "sigmoid", k, seed=5) for k in range(5)], table)
    matrix = sn.heatmap(net, dataset.ids.tolist(), dataset)
    assert matrix.n_rows == 5
    assert any(v != 0.0 for v in matrix.values[4])


# ------------------------------------------------------------------- attribution

def test_attribute_constant_matrix_tie_break():
    report = sn.attribute(matrix_of([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]))
    for row in report.rows:
        assert row.group == 0
        assert row.margin == 0.0


def test_attribute_matches_brute_force_argmax():
    import numpy as np
    gen = np.random.default_rng(99)
    values = gen.uniform(0, 1, size=(6, 4))
    report = sn.attribute(matrix_of(values.tolist()))
    for u, row in enumerate(values):
        top = sorted(row, reverse=True)
        assert report.rows[u].group == int(np.argmax(row))
        assert report.rows[u].margin == pytest.approx(top[0] - top[1], abs=1e-15)


def test_attribute_identity_dominant_matrix():
    values = [[1.0 if i == j else 0.1 for j in range(5)] for i in range(5)]
    report = sn.attribute(matrix_of(values))
    for k, row in enumerate(report.rows):
        assert row.group == k
        assert row.margin == pytest.approx(0.9)


def test_attribute_margin_non_negative_single_column():
    report = sn.attribute(matrix_of([[0.7], [0.2]]))
    assert [r.margin for r in report.rows] == [0.0, 0.0]


# ------------------------------------------------------------------- CSV export

def test_export_csv_shape(tmp_path):
    path = tmp_path / "hm.csv"
    sn.export_heatmap_csv(matrix_of([[0.1, 0.2], [0.3, 0.4]]), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == "unit,col 0,col 1"


def test_export_csv_roundtrip_tolerance(tmp_path):
    import numpy as np
    gen = np.random.default_rng(3)
    values = gen.uniform(0, 1, size=(5, 5)).tolist()
    matrix = matrix_of(values)
    path = tmp_path / "hm.csv"
    sn.export_heatmap_csv(matrix, path)
    _, parsed = parse_heatmap_csv(path)
    for row, parsed_row in zip(matrix.values, parsed):
        for v, p in zip(row, parsed_row):
            assert abs(v - p) <= 1e-6


def test_export_csv_quotes_comma_in_group_name(tmp_path):
    matrix = sn.HeatmapMatrix(values=((0.5,),), row_labels=("unit 0",),
                              col_labels=("Mid-age, mixed",), statistic="mean")
    path = tmp_path / "hm.csv"
    sn.export_heatmap_csv(matrix, path)
    text = path.read_text()
    assert '"Mid-age, mixed"' in text
    cols, _ = parse_heatmap_csv(path)
    assert cols == ("Mid-age, mixed",)


# ------------------------------------------------------------------- SVG export

def test_svg_counts_one_rect_per_cell(tmp_path):
    import numpy as np
    gen = np.random.default_rng(4)
    matrix = matrix_of(gen.uniform(0, 1, size=(5, 5)).tolist())
    path = tmp_path / "hm.svg"
    sn.render_heatmap_svg(matrix, path)
    assert path.read_text().count("<rect") == 25


def test_svg_constant_matrix_single_midpoint_color(tmp_path):
    matrix = matrix_of([[0.4, 0.4], [0.4, 0.4]])
    path = tmp_path / "hm.svg"
    sn.render_heatmap_svg(matrix, path)
    text = path.read_text()
    fills = {line.split('fill="')[1].split('"')[0]
             for line in text.splitlines() if line.startswith("<rect")}
    assert len(fills) == 1
    midpoint = "#%02x%02x%02x" % tuple(round(l + 0.5 * (d - l))
                                       for l, d in zip((247, 251, 255), (8, 48, 107)))
    assert fills == {midpoint}


def test_svg_byte_deterministic(tmp_path):
    import numpy as np
    gen = np.random.default_rng(8)
    values = gen.uniform(0, 1, size=(3, 4)).tolist()
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    sn.render_heatmap_svg(matrix_of(values), a)
    sn.render_heatmap_svg(matrix_of(values), b)
    assert a.read_bytes() == b.read_bytes()


def test_svg_escapes_labels(tmp_path):
    matrix = sn.HeatmapMatrix(values=((0.1,),), row_labels=("unit <0>",),
                              col_labels=("a & b",), statistic="mean")
    path = tmp_path / "hm.svg"
    sn.render_heatmap_svg(matrix, path)
    text = path.read_text()
    assert "a &amp; b" in text
    assert "unit &lt;0&gt;" in text


def test_svg_escapes_labels_as_saxutils_does(tmp_path, monkeypatch):
    matrix = sn.HeatmapMatrix(values=((0.1, 0.2, 0.3), (0.4, 0.5, 0.6), (0.7, 0.8, 0.9)),
                              row_labels=("a & b", "<unit>", "x > y"),
                              col_labels=('say "hi"', "it's", "&amp;"), statistic="mean")
    sn.render_heatmap_svg(matrix, tmp_path / "own.svg")
    monkeypatch.setattr("switchnet.analysis._escape", escape)
    sn.render_heatmap_svg(matrix, tmp_path / "saxutils.svg")
    own = (tmp_path / "own.svg").read_bytes()
    assert own == (tmp_path / "saxutils.svg").read_bytes()
    assert b">&amp;amp;</text>" in own and b">&lt;unit&gt;</text>" in own
