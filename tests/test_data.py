import dataclasses
import functools
import io
import json
import operator
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import switchnet as sn
from switchnet.seeding import rng_for


def specs_for(counts, scale=0.4, label_rule=None):
    rule = label_rule or sn.LabelRule("all-one")
    means = [(-2.0, -1.0), (-2.0, 1.0), (2.0, -1.0), (2.0, 1.0), (0.0, 2.2), (1.0, 0.0)]
    return tuple(sn.GroupSpec(name=f"group {k}", mean=means[k % len(means)],
                              scale=(scale, scale), label_rule=rule, count=c)
                 for k, c in enumerate(counts))


# ---------------------------------------------------------------- generation

def test_generate_hundred_observations_five_groups():
    ds = sn.generate_synthetic(specs_for((20, 30, 10, 20, 20)), seed=42)
    assert len(ds) == 100
    assert len(ds.groups) == 5
    sizes = {g: int(np.count_nonzero(ds.row_groups == g)) for g in range(5)}
    assert sizes == {0: 20, 1: 30, 2: 10, 3: 20, 4: 20}


def test_generate_single_all_one_observation():
    spec = sn.GroupSpec(name="solo", mean=(0.0, 0.0), scale=(1.0, 1.0),
                        label_rule=sn.LabelRule("all-one"), count=1)
    ds = sn.generate_synthetic([spec], seed=0)
    assert len(ds) == 1
    assert ds.observation(0).label == 1


def test_generate_deterministic(tmp_path):
    a = sn.generate_synthetic(specs_for((5, 5)), seed=7)
    b = sn.generate_synthetic(specs_for((5, 5)), seed=7)
    assert a == b
    sn.save_dataset(a, tmp_path / "a.csv")
    sn.save_dataset(b, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_generate_per_observation_stream_oracle():
    # observation i of group g must be mean + scale * row i of the (seed, "data", g) stream
    specs = specs_for((3, 4))
    ds = sn.generate_synthetic(specs, seed=11)
    for g, spec in enumerate(specs):
        rows = rng_for(11, "data", g).standard_normal((spec.count, 2)).tolist()
        expected = [tuple(m + s * d for m, s, d in zip(spec.mean, spec.scale, row)) for row in rows]
        assert [o.features for o in map(ds.observation, ds.ids.tolist()) if o.group == g] == expected


def _group_features(specs, group):
    ds = sn.generate_synthetic(specs, seed=11)
    return ds.features[ds.row_groups == group].tolist()


@pytest.mark.parametrize("grown", [(3, 9), (8, 4), (8, 9)], ids=["second", "first", "both"])
def test_generate_group_prefix_ignores_counts(grown):
    # a group's first observations depend on neither its own count nor another group's
    for g, count in enumerate((3, 4)):
        assert _group_features(specs_for(grown), g)[:count] == _group_features(specs_for((3, 4)), g)


def label_of(rule, features):
    return rule.labels(np.array([features]))[0]


def test_label_rules():
    assert label_of(sn.LabelRule("all-zero"), (5.0, 5.0)) == 0
    assert label_of(sn.LabelRule("all-one"), (-5.0, 0.0)) == 1
    rule = sn.LabelRule("linear-threshold", weights=(1.0, -1.0), bias=0.0)
    assert label_of(rule, (2.0, 1.0)) == 1
    assert label_of(rule, (1.0, 2.0)) == 0
    assert label_of(rule, (1.0, 1.0)) == 0  # ties fall to label 0


def test_linear_threshold_sums_left_to_right():
    # 1 + 1e-16 + 1e-16 - 1 is 0.0 left to right but 2.2e-16 when compensated
    rule = sn.LabelRule("linear-threshold", weights=(1.0, 1e-16, 1e-16), bias=-1.0)
    features = (1.0, 1.0, 1.0)
    z = functools.reduce(operator.add, [w * x for w, x in zip(rule.weights, features)]) + rule.bias
    assert z == 0.0
    assert label_of(rule, features) == 0


def test_generate_rejects_dimension_mismatch():
    good = sn.GroupSpec(name="a", mean=(0.0, 0.0), scale=(1.0, 1.0),
                        label_rule=sn.LabelRule("all-one"), count=2)
    bad = sn.GroupSpec(name="b", mean=(0.0, 0.0, 0.0), scale=(1.0, 1.0, 1.0),
                       label_rule=sn.LabelRule("all-one"), count=2)
    with pytest.raises(sn.DataError, match="dimension"):
        sn.generate_synthetic([good, bad], seed=0)


def test_spec_rejects_bad_scale_and_count():
    with pytest.raises(sn.DataError, match="scale"):
        sn.GroupSpec(name="x", mean=(0.0,), scale=(0.0,), label_rule=sn.LabelRule("all-one"), count=1)
    with pytest.raises(sn.DataError, match="count"):
        sn.GroupSpec(name="x", mean=(0.0,), scale=(1.0,), label_rule=sn.LabelRule("all-one"), count=0)


# ----------------------------------------------------------------- CSV round trip

def test_csv_roundtrip_equal_dataset(tmp_path):
    ds = sn.generate_synthetic(specs_for((6, 7, 5)), seed=3)
    path = tmp_path / "ds.csv"
    sn.save_dataset(ds, path)
    assert sn.load_dataset(path) == ds


@pytest.mark.parametrize("block", [1, 3, 7])
def test_save_writes_the_same_bytes_whatever_the_block_size(tmp_path, monkeypatch, block):
    ds = sn.generate_synthetic(specs_for((6, 7, 5)), seed=3)
    lines = ["# group 0: group 0", "# group 1: group 1", "# group 2: group 2", "id,group,label,f0,f1"]
    lines += [",".join([str(i), str(ds.observation(i).group), str(ds.observation(i).label),
                        *map(repr, ds.observation(i).features)]) for i in ds.ids.tolist()]
    monkeypatch.setattr("switchnet.data._SAVE_BLOCK", block)
    sn.save_dataset(ds, tmp_path / "ds.csv")
    assert (tmp_path / "ds.csv").read_text() == "\n".join(lines) + "\n"


def test_save_dataset_holds_one_block_of_cells(tmp_path):
    # the packaged config x640, 80,000 rows: formatting every row's cells at once peaks at
    # about 31.7 MB under tracemalloc, one 8,192-row block at a time at about 1.9 MB
    base = sn.load_config(sn.default_config_path())
    dataset = sn.generate_synthetic([dataclasses.replace(s, count=s.count * 640) for s in base.specs], base.seed)
    assert len(dataset) == 80_000
    tracemalloc.start()
    try:
        sn.save_dataset(dataset, tmp_path / "ds.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_load_plain_file(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("id,group,label,f0,f1\n0,0,1,0.5,-0.25\n1,0,0,1.5,2.0\n")
    ds = sn.load_dataset(path)
    assert len(ds) == 2
    assert ds.observation(0).features == (0.5, -0.25)
    assert ds.groups == ((0, "group 0"),)


def test_load_allows_id_gaps(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("id,group,label,f0,f1\n3,0,1,0.5,0.5\n10,0,0,1.5,2.0\n")
    ds = sn.load_dataset(path)
    assert ds.ids.tolist() == [3, 10]


def test_load_reads_each_line_as_one_record(tmp_path):
    # a quoted field closes on its own line; one left open is an error at the line it opens on
    path = tmp_path / "quoted.csv"
    path.write_text('id,group,label,f0,f1\n0,0,1,"0.5",0.25\n1,0,0,1.5,"2.0\n2,0,1,-1.0,3.0\n')
    with pytest.raises(sn.DataError, match=r"malformed CSV \(unexpected end of data\), line 3"):
        sn.load_dataset(path)
    path.write_text('id,group,label,f0,f1\n0,0,1,0.5,"0.25\n1,0,0,0.5,2.0"\n2,0,1,1.0,1.0\n')
    with pytest.raises(sn.DataError, match="quoted field runs past its line, line 2"):
        sn.load_dataset(path)
    path.write_text('id,group,label,f0,f1\n0,0,1,"0.5",0.25\n')
    assert sn.load_dataset(path).observation(0).features == (0.5, 0.25)


def test_load_crlf_file_equals_lf_file(tmp_path):
    ds = sn.generate_synthetic(specs_for((4, 3)), seed=5)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    sn.save_dataset(ds, lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert b"\r\n# group 1: group 1\r\n" in crlf.read_bytes()
    assert sn.load_dataset(crlf) == sn.load_dataset(lf) == ds


def test_load_skips_a_leading_byte_order_mark(tmp_path):
    # as spreadsheet exports write it, before a group comment or before the header
    ds = sn.generate_synthetic(specs_for((4, 3)), seed=5)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    sn.save_dataset(ds, plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert sn.load_dataset(marked) == sn.load_dataset(plain) == ds
    plain.write_text("id,group,label,f0\n0,0,1,0.5\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert sn.load_dataset(marked) == sn.load_dataset(plain)


def _refuse_strict_reader(*args, **kwargs):
    raise AssertionError("the strict reader read a file the C reader should take whole")


def _bench_shaped_csv(path, per_group=1250):
    """The bench's eval-heavy input in shape: 8 groups declared by comments, then
    the canonical header and `repr` features, past the `csv` field size limit in all."""
    rng = np.random.default_rng(8)
    lines = [f"# group {g}: sector {g}" for g in range(8)] + ["id,group,label,f0,f1"]
    for obs_id, (x0, x1) in enumerate(rng.standard_normal((8 * per_group, 2)).tolist()):
        lines.append(f"{obs_id},{obs_id // per_group},{int(x0 > 0)},{x0!r},{x1!r}")
    path.write_text("\n".join(lines) + "\n")


def test_canonical_files_load_through_the_c_reader_alone(tmp_path, monkeypatch):
    base = sn.load_config(sn.default_config_path())
    packaged = sn.generate_synthetic(base.specs, base.seed)
    sn.save_dataset(packaged, tmp_path / "packaged.csv")
    _bench_shaped_csv(tmp_path / "bench.csv")
    (tmp_path / "header.csv").write_text("# group 0: a\nid,group,label,f0,f1\n")
    monkeypatch.setattr("switchnet.data._read_rows", _refuse_strict_reader)
    loaded = {}
    for name in ("packaged.csv", "bench.csv", "header.csv"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's loadtxt warns on a file with no rows
            loaded[name] = sn.load_dataset(tmp_path / name)
        assert loaded[name].source == (tmp_path / name).read_bytes()
    assert loaded["packaged.csv"] == packaged
    assert len(loaded["bench.csv"]) == 10_000
    assert loaded["bench.csv"].groups == tuple((g, f"sector {g}") for g in range(8))
    assert loaded["header.csv"] == sn.Dataset(dim=2, groups=((0, "a"),), ids=[], row_groups=[],
                                              labels=[], features=np.empty((0, 2)))


def test_a_c_reader_deprecation_warning_hands_the_file_to_the_strict_reader(tmp_path, monkeypatch):
    """numpy releases from 1.23 on may read an integer cell such as `1.5` through
    a float, as 1, with only a DeprecationWarning: that reading must not stand."""
    real_loadtxt = np.loadtxt

    def truncating_loadtxt(lines, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return real_loadtxt((line.replace("1.5", "1") for line in lines), **kwargs)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    path = tmp_path / "ds.csv"
    path.write_text("id,group,label,f0\n0,0,1.5,0.5\n")
    with pytest.raises(sn.DataError, match=r"^non-integer label, line 2$"):
        sn.load_dataset(path)


def _one_group(ids, labels, features, name="group 0"):
    return sn.Dataset(dim=1, groups=((0, name),), ids=ids, row_groups=[0] * len(ids), labels=labels,
                      features=np.array(features, dtype=float).reshape(-1, 1))


# the rows after a canonical header are plain when every CR in the file starts a CRLF and they hold no
# `#` and no empty line: the C reader then reads them from a stream over the bytes, line numbers
# counted; any other body goes to the strict reader alone (no C reader call, None); each case:
# (bytes, what the C reader is handed, the dataset or message, as the strict reader gives them)
PLAIN_GATE = {
    "LF, comments before the header": (
        b"# group 0: a\n# a note\n\nid,group,label,f0\n0,0,1,0.5\n1,0,0,-1.5\n", "stream",
        _one_group([0, 1], [1, 0], [0.5, -1.5], "a")),
    "LF, a row fault": (b"# group 0: a\n\nid,group,label,f0\n0,0,1,0.5\n1,0,2,0.5\n", "stream",
                        "invalid label 2 for observation 1, line 5"),
    "no trailing newline": (b"id,group,label,f0\n0,0,1,0.5\n1,0,0,2.5", "stream",
                            _one_group([0, 1], [1, 0], [0.5, 2.5])),
    "header only": (b"# group 0: a\nid,group,label,f0\n", "stream", _one_group([], [], [], "a")),
    "header only, no line break": (b"# group 0: a\nid,group,label,f0", "stream", _one_group([], [], [], "a")),
    "byte-order mark": (b"\xef\xbb\xbfid,group,label,f0\n0,0,1,0.5\n", "stream", _one_group([0], [1], [0.5])),
    # part of the row it starts, as anywhere but at the start of the file
    "byte-order mark after the header": (b"# group 0: a\nid,group,label,f0\n\xef\xbb\xbf0,0,1,0.5\n", "stream",
                                         "non-integer id/group, line 3"),
    "CRLF": (b"id,group,label,f0\r\n0,0,1,0.5\r\n1,0,0,2.5\r\n", "stream", _one_group([0, 1], [1, 0], [0.5, 2.5])),
    "CRLF, a row fault": (b"# group 0: a\r\n\r\nid,group,label,f0\r\n0,0,1,0.5\r\n1,0,2,0.5\r\n", "stream",
                          "invalid label 2 for observation 1, line 5"),
    "CRLF, byte-order mark and comments": (b"\xef\xbb\xbf# group 0: a\r\n# a note\r\nid,group,label,f0\r\n0,0,1,0.5\r\n",
                                           "stream", _one_group([0], [1], [0.5], "a")),
    "CRLF, blank line": (b"id,group,label,f0\r\n0,0,1,0.5\r\n\r\n1,0,2,0.5\r\n", None,
                         "invalid label 2 for observation 1, line 4"),
    "CRLF, blank line first": (b"id,group,label,f0\r\n\r\n0,0,1,0.5\r\n", None, _one_group([0], [1], [0.5])),
    "CRLF, one lone CR": (b"id,group,label,f0\r\n0,0,1,0.5\r1,0,2,0.5\r\n", None,
                          "invalid label 2 for observation 1, line 3"),
    "CR": (b"id,group,label,f0\r0,0,1,0.5\r1,0,2,2.5\r", None, "invalid label 2 for observation 1, line 3"),
    "CR in one line": (b"id,group,label,f0\n0,0,1,0.5\r\n1,0,2,2.5\n", "stream",
                       "invalid label 2 for observation 1, line 3"),
    "blank line after the header": (b"id,group,label,f0\n\n0,0,1,0.5\n\n1,0,2,0.5\n", None,
                                    "invalid label 2 for observation 1, line 5"),
    "comment after the header": (b"id,group,label,f0\n0,0,1,0.5\n# group 0: late\n", None,
                                 _one_group([0], [1], [0.5], "late")),
    "quoted cell": (b'id,group,label,f0\n0,0,1,0.5\n1,0,0,"2.5"\n', None, _one_group([0, 1], [1, 0], [0.5, 2.5])),
    "quoted cell, a later fault": (b'id,group,label,f0\n0,0,1,"0.5"\n1,0,2,2.5\n', None,
                                   "invalid label 2 for observation 1, line 3"),
    # decoding runs in chunks of 8 KB: the bad byte sits past the first, so the header decodes
    "non-UTF-8 byte in the body": (b"id,group,label,f0\n" + b"0,0,1,0.5\n" * 1000 + b"1,0,1,0.\xe95\n", "stream",
                                   "dataset file {path} is not UTF-8 text (invalid continuation byte)"),
}


@pytest.mark.parametrize("case", PLAIN_GATE)
def test_plain_gate_picks_what_the_c_reader_reads_and_keeps_every_result(tmp_path, monkeypatch, case):
    raw, handed, want = PLAIN_GATE[case]
    seen = []
    real_read_fast = sn.data._read_fast

    def spy(lines, dim):
        seen.append("stream" if isinstance(lines, io.TextIOWrapper) else "lines")
        return real_read_fast(lines, dim)

    monkeypatch.setattr("switchnet.data._read_fast", spy)
    path = tmp_path / "ds.csv"
    path.write_bytes(raw)
    if isinstance(want, str):
        with pytest.raises(sn.DataError) as info:
            sn.load_dataset(path)
        assert str(info.value) == want.format(path=path)
    else:
        loaded = sn.load_dataset(path)
        assert loaded == want and loaded.source == raw
        assert loaded.features.tobytes() == want.features.tobytes()
    assert seen == ([] if handed is None else [handed])


def _refuse_c_reader(lines, dim):
    raise AssertionError("the C reader was handed a plain body holding a quote")


def test_a_quoted_cell_in_a_plain_body_goes_to_the_strict_reader_alone(tmp_path, monkeypatch):
    # one parse: the C reader reads no quotes, so it is not run on a file it would refuse
    path = tmp_path / "bench.csv"
    _bench_shaped_csv(path)
    raw = path.read_bytes()
    head, last = raw.rstrip(b"\n").rsplit(b"\n", 1)
    cells = last.split(b",")
    quoted = head + b"\n" + b",".join(cells[:-1] + [b'"' + cells[-1] + b'"']) + b"\n"
    want = sn.load_dataset(path)
    path.write_bytes(quoted)
    monkeypatch.setattr("switchnet.data._read_fast", _refuse_c_reader)
    loaded = sn.load_dataset(path)
    assert loaded == want and loaded.features.tobytes() == want.features.tobytes()
    assert loaded.groups == tuple((g, f"sector {g}") for g in range(8))


def _counting(monkeypatch, name):
    """Patch `switchnet.data.<name>` to count its calls, in the list returned."""
    calls, real = [], getattr(sn.data, name)

    def spy(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(f"switchnet.data.{name}", spy)
    return calls


def test_a_refused_plain_body_reads_its_head_once(tmp_path, monkeypatch):
    # numpy refuses `1_0.5`, Python's float reads 10.5: the strict reader reads on from the header
    path = tmp_path / "ds.csv"
    path.write_bytes(b"# group 0: a\nid,group,label,f0\n0,0,1,0.5\n1,0,0,1_0.5\n")
    line_readers = _counting(monkeypatch, "_data_lines")
    fast_reads = _counting(monkeypatch, "_read_fast")
    loaded = sn.load_dataset(path)
    assert loaded == _one_group([0, 1], [1, 0], [0.5, 10.5], "a")
    assert line_readers == ["_data_lines"] and fast_reads == ["_read_fast"]


@pytest.mark.parametrize("raw, want", [
    (b"id,group,label,f0\n0,0,1,0.5\n1,0,0,2.5\n", None),
    (b"id,group,label,f0\n0,0,1,0.5\n1,0,2,2.5\n", "invalid label 2 for observation 1, line 3"),
    (b"id,group,label,f0\n0,0,1,0.5\n1,0,x,2.5\n", "non-integer label, line 3"),
], ids=["valid", "row fault", "parse fault"])
def test_load_dataset_runs_the_row_rules_once(tmp_path, monkeypatch, raw, want):
    path = tmp_path / "ds.csv"
    path.write_bytes(raw)
    rule_runs = _counting(monkeypatch, "_row_rules")
    if want is None:
        sn.load_dataset(path)
    else:
        with pytest.raises(sn.DataError, match=f"^{re.escape(want)}$"):
            sn.load_dataset(path)
    assert rule_runs == ["_row_rules"]


# a byte-order mark, CRLF line ends and `1.50`: a file `save_dataset` would not write
NON_CANONICAL = b"\xef\xbb\xbf# group 0: a\r\nid,group,label,f0,f1\r\n0,0,1,1.50,-0.25\r\n1,0,0,0.5,2.0\r\n"
FORMATTED = b"# group 0: a\nid,group,label,f0,f1\n0,0,1,1.5,-0.25\n1,0,0,0.5,2.0\n"


def test_loaded_dataset_is_written_back_as_read(tmp_path):
    path, out = tmp_path / "in.csv", tmp_path / "out.csv"
    path.write_bytes(NON_CANONICAL)
    loaded = sn.load_dataset(path)
    assert loaded.source == NON_CANONICAL
    sn.save_dataset(loaded, out)
    assert out.read_bytes() == NON_CANONICAL
    # the source is not compared: the same rows read from the formatted file are equal
    path.write_bytes(FORMATTED)
    assert sn.load_dataset(path) == loaded


def test_a_dataset_built_from_a_loaded_one_is_written_formatted(tmp_path):
    path, out = tmp_path / "in.csv", tmp_path / "out.csv"
    path.write_bytes(NON_CANONICAL)
    loaded = sn.load_dataset(path)
    ids = loaded.ids.tolist()
    built = {"subset": loaded.subset(ids),
             "from_observations": sn.Dataset.from_observations(
                 loaded.dim, loaded.groups, [loaded.observation(i) for i in ids])}
    for how, dataset in built.items():
        assert dataset == loaded and dataset.source is None, how
        sn.save_dataset(dataset, out)
        assert out.read_bytes() == FORMATTED, how


def test_pickled_dataset_leaves_its_source_behind(tmp_path):
    # a pickled copy is rebuilt through the constructor; pool workers get columns only
    path = tmp_path / "in.csv"
    path.write_bytes(NON_CANONICAL)
    loaded = sn.load_dataset(path)
    copy = pickle.loads(pickle.dumps(loaded))
    assert copy == loaded and copy.source is None
    assert NON_CANONICAL not in pickle.dumps(loaded)


def test_only_the_loader_sets_a_source():
    assert sn.generate_synthetic(specs_for((2,)), seed=1).source is None
    with pytest.raises(TypeError):
        sn.Dataset(dim=1, groups=((0, "a"),), ids=[0], row_groups=[0], labels=[1], features=[[0.5]],
                   source=b"0")


@pytest.mark.parametrize("line", [1, 2])  # the header, then a data line
def test_load_oversized_field_names_line(tmp_path, line):
    # over the csv module's field size limit (131,072 characters)
    rows = ["id,group,label,f0", "0,0,1,0.5"]
    rows[line - 1] += "x" * 200_000
    path = tmp_path / "big.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(sn.DataError, match=f"field larger than field limit.*, line {line}$"):
        sn.load_dataset(path)


def test_load_invalid_label_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,group,label,f0,f1\n0,0,1,0.5,0.5\n1,0,2,0.5,0.5\n")
    with pytest.raises(sn.DataError, match="^invalid label 2 for observation 1, line 3$"):
        sn.load_dataset(path)


def test_load_wrong_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,group,label,f0,f1\n0,0,1,0.5\n")
    with pytest.raises(sn.DataError, match="line 2"):
        sn.load_dataset(path)


def test_load_non_numeric_feature(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,group,label,f0,f1\n0,0,1,0.5,oops\n")
    with pytest.raises(sn.DataError, match="non-numeric feature, line 2"):
        sn.load_dataset(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_non_finite_feature(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"id,group,label,f0,f1\n0,0,1,0.5,0.5\n1,0,1,{cell},0.5\n")
    with pytest.raises(sn.DataError, match="non-finite feature, line 3"):
        sn.load_dataset(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_observation_rejects_non_finite(value):
    with pytest.raises(sn.DataError, match="observation 3: non-finite feature"):
        sn.Observation(id=3, group=0, label=1, features=(value, 0.0))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["mean", "scale"])
def test_group_spec_rejects_non_finite(field, value):
    fields = {"mean": (0.0, 0.0), "scale": (1.0, 1.0)}
    fields[field] = (1.0, value)
    with pytest.raises(sn.DataError, match="finite"):
        sn.GroupSpec(name="g", label_rule=sn.LabelRule("all-one"), count=1, **fields)


def test_load_unknown_group_against_declared(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# group 0: only\nid,group,label,f0,f1\n0,3,1,0.5,0.5\n")
    with pytest.raises(sn.DataError, match="unknown group 3, line 3"):
        sn.load_dataset(path)


HEADER = "id,group,label,f0,f1\n"
# Each whole-dataset fault, as a CSV and the one error `load_dataset` gives:
# the message a row-by-row reader gave, naming the earliest faulty line. There
# is one fault order: CSV syntax, a quoted field running past its line, the
# column count, a number that does not parse and the row rules (a repeated id
# included) all rank by line. A group list that is not dense 0..G-1 names no
# line and comes after every line's fault; a file that is not UTF-8 or a path
# that cannot be read names the file, not a line.
LOAD_FAULTS = {
    "width": (HEADER + "0,0,1,0.5,0.5\n1,0,1,0.5\n", "expected 5 columns, got 4, line 3"),
    "unknown group": ("# group 0: a\n" + HEADER + "0,0,1,0.5,0.5\n1,3,1,0.5,0.5\n",
                      "observation 1 references unknown group 3, line 4"),
    "duplicate id": (HEADER + "4,0,1,0.5,0.5\n7,0,1,0.5,0.5\n4,0,0,0.5,0.5\n",
                     "duplicate observation id 4, line 4"),
    "negative id": (HEADER + "0,0,1,0.5,0.5\n-1,0,1,0.5,0.5\n",
                    "observation id/group must be non-negative, got id=-1 group=0, line 3"),
    "negative group": (HEADER + "0,-2,1,0.5,0.5\n",
                       "observation id/group must be non-negative, got id=0 group=-2, line 2"),
    "non-finite feature": (HEADER + "0,0,1,0.5,0.5\n1,0,1,0.5,inf\n",
                           "observation 1: non-finite feature, line 3"),
    "bad label": (HEADER + "0,0,1,0.5,0.5\n1,0,2,0.5,0.5\n", "invalid label 2 for observation 1, line 3"),
    # a label cell is parsed as the id and group are; its value meets the row rules
    "non-integer label": (HEADER + "0,0,1,0.5,0.5\n1,0,1.0,0.5,0.5\n", "non-integer label, line 3"),
    "label past 64 bits": (HEADER + "0,0,1,0.5,0.5\n1,0,99999999999999999999,0.5,0.5\n",
                           "label does not fit in 64 bits, line 3"),
    "negative id before a bad label on one row": (HEADER + "-1,0,2,0.5,0.5\n",
                                                  "observation id/group must be non-negative, "
                                                  "got id=-1 group=0, line 2"),
    "declared group gap": ("# group 0: a\n# group 2: c\n" + HEADER + "0,0,1,0.5,0.5\n2,2,1,0.5,0.5\n",
                            r"group ids must be dense 0..G-1 in order, got [0, 2]"),
    "undeclared group gap": (HEADER + "0,0,1,0.5,0.5\n1,2,1,0.5,0.5\n",
                             "group ids must be dense 0..G-1 in order, got [0, 2]"),
    # the earliest row wins, whichever check finds it
    "row check before a later parse fault": (HEADER + "0,0,1,nan,0.5\n1,0,1,0.5\n",
                                             "observation 0: non-finite feature, line 2"),
    "parse fault before a later row check": (HEADER + "0,0,1,0.5\n-1,0,1,0.5,0.5\n",
                                             "expected 5 columns, got 4, line 2"),
    "unknown group before non-finite on one row": ("# group 0: a\n" + HEADER + "0,5,1,nan,0.5\n",
                                                   "observation 0 references unknown group 5, line 3"),
    "negative id before non-finite on one row": (HEADER + "-3,0,1,nan,0.5\n",
                                                 "observation id/group must be non-negative, "
                                                 "got id=-3 group=0, line 2"),
    "duplicate before a later row fault": (HEADER + "0,0,1,0.5,0.5\n0,0,1,0.5,0.5\n1,0,1,-inf,0.5\n",
                                           "duplicate observation id 0, line 3"),
    "lines counted past comments": (HEADER + "# a note\n\n0,0,1,0.5,oops\n",
                                    "non-numeric feature, line 4"),
    "row fault before a later CSV error": (HEADER + '0,0,2,0.5,0.5\n1,0,1,"0.5,0.5\n',
                                           "invalid label 2 for observation 0, line 2"),
    "row fault before a later quoted field running past its line": (
        HEADER + '0,0,1,nan,0.5\n1,0,1,"0.5\n",0.5\n2,0,1,0.5,0.5\n',
        "observation 0: non-finite feature, line 2"),
    # only a byte-order mark that starts the file is skipped
    "byte-order mark before a data line": (HEADER + "0,0,1,0.5,0.5\n\ufeff1,0,1,0.5,0.5\n",
                                            "non-integer id/group, line 3"),
    "byte-order mark inside a field": (HEADER + "0,0,1,0.5,\ufeff0.5\n", "non-numeric feature, line 2"),
    "second byte-order mark": ("\ufeff\ufeff" + HEADER, r"bad header, line 1: '\ufeffid,group,label,f0,f1'"),
    "byte-order mark after a comment": ("# group 0: a\n\ufeff" + HEADER,
                                        r"bad header, line 2: '\ufeffid,group,label,f0,f1'"),
    "group comment after a parse fault still declares its group": (
        "# group 0: a\n" + HEADER + "0,3,1,0.5,0.5\n1,0,1,0.5,oops\n# group 3: d\n",
        "non-numeric feature, line 4"),
}


@pytest.mark.parametrize("case", LOAD_FAULTS)
def test_load_whole_dataset_fault_names_earliest_line(tmp_path, case):
    text, message = LOAD_FAULTS[case]
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(sn.DataError) as info:
        sn.load_dataset(path)
    assert str(info.value) == message


def _obs(obs_id, group=0, features=(0.5, 0.5)):
    return sn.Observation(id=obs_id, group=group, label=1, features=features)


# The same faults in a dataset built from rows: the messages a row-by-row check
# gave, for the earliest faulty row.
ROW_FAULTS = {
    "width": ((_obs(0), _obs(1, features=(0.5,))), "observation 1 has 1 features, expected 2"),
    "unknown group": ((_obs(0), _obs(1, group=3)), "observation 1 references unknown group 3"),
    "duplicate id": ((_obs(4), _obs(7), _obs(4)), "duplicate observation id 4"),
    "duplicate before a later width fault": ((_obs(4), _obs(4), _obs(5, features=(1.0,))),
                                             "duplicate observation id 4"),
    "width before a later unknown group": ((_obs(0, features=(1.0,)), _obs(1, group=9)),
                                           "observation 0 has 1 features, expected 2"),
    "unknown group before duplicate on one row": ((_obs(2), _obs(2, group=9)),
                                                  "observation 2 references unknown group 9"),
}


@pytest.mark.parametrize("case", ROW_FAULTS)
def test_dataset_from_rows_fault_names_earliest_row(case):
    rows, message = ROW_FAULTS[case]
    with pytest.raises(sn.DataError) as info:
        sn.Dataset.from_observations(dim=2, groups=((0, "a"),), observations=rows)
    assert str(info.value) == message


@pytest.mark.parametrize("column, value, message", [
    ("ids", [0, -1], "observation id/group must be non-negative, got id=-1 group=0"),
    ("labels", [1, 2], "invalid label 2 for observation 1"),
    ("features", [[0.5, 0.5], [0.5, float("nan")]], "observation 1: non-finite feature"),
    ("ids", [0.0, 1.0], "dataset ids must be int64 numbers, got dtype float64"),
    ("labels", [True, False], "dataset labels must be int64 numbers, got dtype bool"),
    ("features", [0.5, 0.5], r"features must have shape (2, 2), got (2,)"),
    ("row_groups", [0], "ids, row_groups and labels must be 1-D columns of one length"),
])
def test_dataset_column_checks(column, value, message):
    columns = {"ids": [0, 1], "row_groups": [0, 0], "labels": [1, 1],
               "features": [[0.5, 0.5], [0.5, 0.5]]}
    columns[column] = value
    with pytest.raises(sn.DataError) as info:
        sn.Dataset(dim=2, groups=((0, "a"),), **columns)
    assert str(info.value).startswith(message)


def test_dataset_reports_the_earliest_faulty_row_whatever_the_rule():
    with pytest.raises(sn.DataError, match="^observation 1 references unknown group 5$"):
        sn.Dataset(dim=1, groups=((0, "a"),), ids=[0, 1, 2], row_groups=[0, 5, 0], labels=[1, 0, 1],
                   features=[[0.5], [0.25], [float("nan")]])


def test_group_list_fault_comes_after_every_row_fault():
    with pytest.raises(sn.DataError, match="^observation 0: non-finite feature$"):
        sn.Dataset(dim=1, groups=((0, "a"), (2, "c")), ids=[0], row_groups=[2], labels=[1],
                   features=[[float("inf")]])
    with pytest.raises(sn.DataError, match=r"^group ids must be dense 0..G-1 in order, got \[0, 2\]$"):
        sn.Dataset(dim=1, groups=((0, "a"), (2, "c")), ids=[0], row_groups=[2], labels=[1],
                   features=[[0.5]])


@pytest.mark.parametrize("obs_id, dtype", [(1.5, "float64"), (2**63, "uint64"), (True, "bool")])
def test_dataset_from_rows_never_truncates_an_id(obs_id, dtype):
    # an `Observation` takes any non-negative number as its id; the id column takes only int64
    rows = (sn.Observation(id=obs_id, group=0, label=1, features=(1.0,)),)
    with pytest.raises(sn.DataError, match=f"^dataset ids must be int64 numbers, got dtype {dtype}$"):
        sn.Dataset.from_observations(dim=1, groups=((0, "a"),), observations=rows)


def test_load_id_beyond_64_bits_names_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(HEADER + "0,0,1,0.5,0.5\n" + f"{2**63},0,1,0.5,0.5\n")
    with pytest.raises(sn.DataError, match=r"^observation id/group does not fit in 64 bits, line 3$"):
        sn.load_dataset(path)


def _every_kind_of_dataset(tmp_path):
    generated = sn.generate_synthetic(specs_for((4, 3)), seed=8)
    sn.save_dataset(generated, tmp_path / "ds.csv")
    rows = (_obs(3), _obs(1, features=(-0.0, 2.5)))
    return {"generated": generated, "loaded": sn.load_dataset(tmp_path / "ds.csv"),
            "from rows": sn.Dataset.from_observations(dim=2, groups=((0, "a"),), observations=rows),
            "subset": generated.subset([5, 0, 2]),
            "unpickled": pickle.loads(pickle.dumps(generated))}


def test_columns_are_read_only(tmp_path):
    for kind, ds in _every_kind_of_dataset(tmp_path).items():
        for name in ("ids", "row_groups", "labels", "features"):
            column = getattr(ds, name)
            assert not column.flags.writeable, (kind, name)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1


def test_columns_are_copies_of_what_the_constructor_is_given():
    features = np.array([[0.5, 0.5], [1.5, -2.0]])
    ds = sn.Dataset(dim=2, groups=((0, "a"),), ids=[7, 3], row_groups=[0, 0], labels=[1, 0],
                    features=features)
    features[0, 0] = 99.0
    assert ds.observation(7).features == (0.5, 0.5)


def test_observation_returns_the_row_it_was_built_from():
    rows = (sn.Observation(id=9, group=1, label=0, features=(-0.0, 5e-324)),
            sn.Observation(id=2, group=0, label=1, features=(1.5, -2.25)))
    ds = sn.Dataset.from_observations(dim=2, groups=((0, "a"), (1, "b")), observations=rows)
    for row in rows:
        built = ds.observation(row.id)
        assert built == row and repr(built) == repr(row)
        assert type(built.id) is int and type(built.label) is int
    assert ds.ids.tolist() == [9, 2]
    with pytest.raises(sn.DataError, match="unknown observation id 5"):
        ds.observation(5)


def test_subset_keeps_the_order_of_its_ids():
    ds = sn.generate_synthetic(specs_for((4, 3)), seed=8)
    ids = [6, 0, 4, 2]
    sub = ds.subset(ids)
    assert sub.ids.tolist() == ids
    assert sub.groups == ds.groups
    assert [sub.observation(i) for i in ids] == [ds.observation(i) for i in ids]


def test_load_missing_file():
    with pytest.raises(sn.DataError, match="not found"):
        sn.load_dataset("/nonexistent/nowhere.csv")


def test_load_non_utf8_file_names_the_file(tmp_path):
    # decoding runs in chunks, so the fault names the file, not a line
    path = tmp_path / "latin1.csv"
    path.write_bytes(HEADER.encode() + b"0,0,1,0.5,0.5\n# caf\xe9\n")
    with pytest.raises(sn.DataError, match=f"^dataset file {re.escape(str(path))} is not UTF-8 text "):
        sn.load_dataset(path)


def test_load_directory_names_the_path(tmp_path):
    with pytest.raises(sn.DataError, match=f"^dataset file {re.escape(str(tmp_path))} cannot be read: "):
        sn.load_dataset(tmp_path)


# ----------------------------------------------------------------- partitioning

def test_partition_paper_split_sizes_and_disjointness():
    ds = sn.generate_synthetic(specs_for((20, 30, 10, 20, 20)), seed=42)
    plan = sn.PartitionPlan.from_counts([20, 30, 10, 20, 20], selection="stratified")
    parts = sn.partition(ds, plan, seed=42)
    sizes = [len(parts.subsets[k]) for k in range(5)]
    assert sizes == [20, 30, 10, 20, 20]
    seen = set()
    for ids in parts.subsets:
        assert not seen.intersection(ids)
        seen.update(ids)
    assert seen <= set(ds.ids.tolist())


def test_partition_exhaustive_contiguous():
    ds = sn.generate_synthetic(specs_for((60, 40)), seed=1)
    plan = sn.PartitionPlan.from_counts([100], selection="contiguous")
    parts = sn.partition(ds, plan, seed=1)
    assert set(parts.subsets[0]) == set(ds.ids.tolist())


def test_partition_pigeonhole_error():
    ds = sn.generate_synthetic(specs_for((60, 40)), seed=1)
    plan = sn.PartitionPlan.from_counts([60, 60], selection="contiguous")
    with pytest.raises(sn.DataError, match="120"):
        sn.partition(ds, plan, seed=1)


def test_partition_stratified_respects_groups():
    ds = sn.generate_synthetic(specs_for((10, 12, 9)), seed=5)
    plan = sn.PartitionPlan.from_counts([8, 8, 8], selection="stratified")
    parts = sn.partition(ds, plan, seed=5)
    for unit, ids in enumerate(parts.subsets):
        groups = {ds.observation(i).group for i in ids}
        assert groups == {unit}


def test_partition_stratified_exhausted():
    ds = sn.generate_synthetic(specs_for((10, 5)), seed=5)
    plan = sn.PartitionPlan.from_counts([4, 8], selection="stratified")
    with pytest.raises(sn.DataError, match="exhausted"):
        sn.partition(ds, plan, seed=5)


def test_partition_explicit_lists():
    ds = sn.generate_synthetic(specs_for((5, 5)), seed=9)
    plan = sn.PartitionPlan.from_counts([2, 3], selection="explicit",
                                        explicit_ids=[[1, 0], [5, 6, 7]])
    parts = sn.partition(ds, plan, seed=9)
    assert parts.subsets == ((0, 1), (5, 6, 7))


def test_partition_explicit_overlap_rejected():
    # the plan's lists are the subsets `partition` would return: refused before it runs
    with pytest.raises(sn.DataError, match=r"^subsets overlap on observation ids \[1\]$"):
        sn.PartitionPlan.from_counts([2, 2], selection="explicit", explicit_ids=[[0, 1], [1, 2]])


@pytest.mark.parametrize("explicit_ids, message", [
    ([[0, 1.5], [2]], "unit 0: subset ids must be integers, got 1.5"),
    ([[0, True], [2]], "unit 0: subset ids must be integers, got True"),
    ([[0], [2]], "unit 0: subset has 1 ids, plan says 2"),
    ([[0.5], [2]], "unit 0: subset has 1 ids, plan says 2"),  # the count is checked first
    ([[0, 1], [2, 2, 3]], "unit 1: subset has 3 ids, plan says 1"),
    ([[4, 4], [2]], "unit 0: subset repeats an observation id"),
])
def test_explicit_plan_lists_pass_the_subset_check(explicit_ids, message):
    with pytest.raises(sn.DataError, match=f"^{re.escape(message)}$"):
        sn.PartitionPlan.from_counts([2, 1], selection="explicit", explicit_ids=explicit_ids)


def test_partition_explicit_unknown_id():
    ds = sn.generate_synthetic(specs_for((5, 5)), seed=9)
    plan = sn.PartitionPlan.from_counts([2], selection="explicit", explicit_ids=[[0, 99]])
    with pytest.raises(sn.DataError, match="99"):
        sn.partition(ds, plan, seed=9)


def test_partition_random_plans_property():
    # disjointness, exact counts, determinism across 40 random plans
    gen = np.random.default_rng(2024)
    ds = sn.generate_synthetic(specs_for((30, 30, 30)), seed=13)
    for trial in range(40):
        n_units = int(gen.integers(1, 4))
        counts = [int(gen.integers(1, 25)) for _ in range(n_units)]
        plan = sn.PartitionPlan.from_counts(counts, selection="stratified")
        seed = int(gen.integers(0, 10_000))
        parts = sn.partition(ds, plan, seed)
        again = sn.partition(ds, plan, seed)
        assert parts.subsets == again.subsets
        seen = set()
        for ids, count in zip(parts.subsets, counts):
            assert len(ids) == count
            assert not seen.intersection(ids)
            seen.update(ids)


# ----------------------------------------------------------------- test sets

def _partitioned(counts, plan_counts, seed=21):
    ds = sn.generate_synthetic(specs_for(counts), seed=seed)
    plan = sn.PartitionPlan.from_counts(plan_counts, selection="stratified")
    return ds, sn.partition(ds, plan, seed)


def test_non_overlapping_is_exact_set_difference():
    ds, parts = _partitioned((25, 35, 15, 25, 25), [20, 30, 10, 20, 20])
    overlapping, non_overlapping = sn.make_test_sets(ds, parts, 0.2, seed=21)
    expected = sorted(set(ds.ids.tolist()) - set(parts.assigned_ids()))
    assert list(non_overlapping) == expected
    assert len(non_overlapping) == 25


def test_overlapping_size_is_floor_of_fraction():
    ds, parts = _partitioned((25, 35, 15, 25, 25), [20, 30, 10, 20, 20])
    overlapping, _ = sn.make_test_sets(ds, parts, 0.1, seed=21)
    assert len(overlapping) == 10
    assert set(overlapping) <= parts.assigned_ids()


def test_no_unseen_pool_is_error():
    ds, parts = _partitioned((20, 20), [20, 20])
    with pytest.raises(sn.DataError, match="non-overlapping"):
        sn.make_test_sets(ds, parts, 0.2, seed=21)


def test_group_without_unseen_observation_is_error():
    ds, parts = _partitioned((20, 25), [20, 20])
    with pytest.raises(sn.DataError, match=r"group\(s\) \[0\] have no unassigned"):
        sn.make_test_sets(ds, parts, 0.2, seed=21)


def test_empty_overlapping_sample_is_error():
    ds, parts = _partitioned((25, 25), [20, 20])
    with pytest.raises(sn.DataError, match="samples no overlapping test id"):
        sn.make_test_sets(ds, parts, 0.02, seed=21)
    overlapping, _ = sn.make_test_sets(ds, parts, 0.025, seed=21)
    assert len(overlapping) == 1


def test_test_sets_deterministic_and_disjoint_from_training():
    ds, parts = _partitioned((25, 25), [20, 20])
    a = sn.make_test_sets(ds, parts, 0.25, seed=3)
    b = sn.make_test_sets(ds, parts, 0.25, seed=3)
    assert a == b
    _, non_overlapping = a
    assert not set(non_overlapping) & parts.assigned_ids()


def test_holdout_fraction_bounds():
    ds, parts = _partitioned((25, 25), [20, 20])
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(sn.DataError, match="holdout_fraction"):
            sn.make_test_sets(ds, parts, bad, seed=3)


# ----------------------------------------------------------------- serialization

def test_partition_set_json_roundtrip():
    ds, parts = _partitioned((10, 10), [8, 8], seed=4)
    assert sn.PartitionSet.from_json(parts.to_json()) == parts


@pytest.mark.parametrize("field, value, message", [
    ("subset id", 0.5, "subset ids must be integers, got 0.5"),
    ("subset id", "1", "subset ids must be integers, got '1'"),
    ("count", 2.9, "planned counts must be positive integers"),
    ("plan unit", 0.0, "unit indices must be integers"),
    ("seed", True, "partition seed must be an integer, got True"),
])
def test_partition_set_json_rejects_non_integers(field, value, message):
    _, parts = _partitioned((10, 10), [8, 8], seed=4)
    doc = parts.to_json()
    if field == "subset id":
        doc["subsets"]["0"][0] = value
    elif field == "count":
        doc["plan"][0][1] = value
    elif field == "plan unit":
        doc["plan"][0][0] = value
    else:
        doc["seed"] = value
    with pytest.raises(sn.DataError, match=message):
        sn.PartitionSet.from_json(doc)


def _corrupt(doc, case):
    if case == "short subset":
        doc["subsets"]["0"] = doc["subsets"]["0"][:3]
    elif case == "repeated id":
        doc["subsets"]["0"][1] = doc["subsets"]["0"][0]
    elif case == "long subset":
        doc["subsets"]["0"].append(19)
    elif case == "missing unit key":
        del doc["subsets"]["1"]
    elif case == "extra key":
        doc["subsets"]["7"] = doc["subsets"].pop("1")
    elif case == "extra unit":
        doc["subsets"]["7"] = [19]
    elif case == "units out of order":
        doc["plan"].reverse()
    else:  # float unit
        doc["plan"][0][0] = 0.0
    return doc


PLAN_MISMATCHES = {"short subset": "unit 0: subset has 3 ids, plan says 8",
                   "repeated id": "unit 0: subset repeats an observation id",
                   "long subset": "unit 0: subset has 9 ids, plan says 8",
                   "missing unit key": r"subset keys must be exactly \['0', '1'\], got \['0'\]",
                   "extra key": r"subset keys must be exactly \['0', '1'\], got \['0', '7'\]",
                   "extra unit": r"got \['0', '1', '7'\]",
                   "units out of order": r"plan unit indices must be integers 0..n-1 in order, got \[1, 0\]",
                   "float unit": r"plan unit indices must be integers 0..n-1 in order, got \[0.0, 1\]"}


@pytest.mark.parametrize("case", PLAN_MISMATCHES)
def test_partition_set_json_must_match_its_plan(case):
    _, parts = _partitioned((10, 10), [8, 8], seed=4)
    with pytest.raises(sn.DataError, match=PLAN_MISMATCHES[case]):
        sn.PartitionSet.from_json(_corrupt(parts.to_json(), case))


def test_partition_set_needs_one_subset_per_planned_unit():
    _, parts = _partitioned((10, 10), [8, 8], seed=4)
    with pytest.raises(sn.DataError, match="1 subsets for a plan of 2 units"):
        sn.PartitionSet(subsets=parts.subsets[:1], plan=parts.plan, seed=4)


def test_partition_set_json_roundtrip_explicit():
    ds = sn.generate_synthetic(specs_for((5, 5)), seed=9)
    plan = sn.PartitionPlan.from_counts([2, 3], selection="explicit",
                                        explicit_ids=[[1, 0], [5, 6, 7]])
    parts = sn.partition(ds, plan, seed=9)
    assert sn.PartitionSet.from_json(parts.to_json()) == parts


def test_group_specs_file_roundtrip(tmp_path):
    # a specs file, as `gen-data --specs` reads it: a JSON list of `GroupSpec.to_json` documents
    specs = specs_for((4, 4), label_rule=sn.LabelRule("linear-threshold", weights=(1.0, 2.0), bias=-0.5))
    path = tmp_path / "specs.json"
    path.write_text(json.dumps([s.to_json() for s in specs]))
    assert tuple(map(sn.GroupSpec.from_json, json.loads(path.read_text()))) == specs


@pytest.mark.parametrize("name", ["Young\nLow Income", "Young\rLow Income", "trailing\r\n"])
def test_group_name_with_line_break_rejected(name):
    with pytest.raises(sn.DataError, match="line break"):
        sn.GroupSpec(name=name, mean=(0.0,), scale=(1.0,), label_rule=sn.LabelRule("all-one"), count=1)
    with pytest.raises(sn.DataError, match="line break"):
        sn.Dataset.from_observations(dim=1, groups=((0, name),), observations=())


def test_dataset_validation():
    with pytest.raises(sn.DataError, match="dense"):
        sn.Dataset.from_observations(dim=1, groups=((0, "a"), (2, "c")), observations=())
    with pytest.raises(sn.DataError, match="dense"):
        sn.Dataset.from_observations(dim=1, groups=((1, "b"), (0, "a")), observations=())
    obs = sn.Observation(id=0, group=0, label=1, features=(1.0,))
    with pytest.raises(sn.DataError, match="duplicate"):
        sn.Dataset.from_observations(dim=1, groups=((0, "a"),), observations=(obs, obs))
    with pytest.raises(sn.DataError, match="unknown group"):
        sn.Dataset.from_observations(dim=1, groups=((0, "a"),),
                                     observations=(sn.Observation(id=1, group=5, label=0, features=(1.0,)),))


@pytest.mark.parametrize("field, value, message", [
    ("mean", ["-2", True], "mean and scale entries must be JSON numbers"),
    ("scale", [0.4, None], "mean and scale entries must be JSON numbers"),
    ("name", 7, "group name must be a string, got 7"),
    ("label_rule", {"kind": "linear-threshold", "weights": [1.0, "2"]}, "must be JSON numbers"),
    ("label_rule", {"kind": "linear-threshold", "weights": [1.0, 2.0], "bias": False},
     "must be JSON numbers")])
def test_group_spec_json_rejects_non_numbers(field, value, message):
    doc = specs_for((4,))[0].to_json()
    doc[field] = value
    with pytest.raises(sn.DataError, match=message):
        sn.GroupSpec.from_json(doc)


@pytest.mark.parametrize("kind", ["all-zero", "all-one"])
@pytest.mark.parametrize("fields", [{"weights": (1.0, 0.0)}, {"bias": 0.0}, {"weights": (1.0,), "bias": 7.0}])
def test_constant_label_rule_takes_no_weights_or_bias(kind, fields):
    with pytest.raises(sn.DataError, match=f"^label rule '{kind}' takes no weights or bias$"):
        sn.LabelRule(kind, **fields)
    with pytest.raises(sn.DataError, match=f"^label rule '{kind}' takes no weights or bias$"):
        sn.LabelRule.from_json({"kind": kind, **{key: list(v) if key == "weights" else v for key, v in fields.items()}})


def test_label_rule_object_form_of_a_constant_kind_is_the_kind():
    assert sn.LabelRule.from_json({"kind": "all-one"}) == sn.LabelRule("all-one")
    assert sn.LabelRule.from_json({"kind": "all-one"}).to_json() == "all-one"
    assert sn.LabelRule("linear-threshold", weights=(1.0,)).bias == 0.0


@pytest.mark.parametrize("count", [2**63, 2**64, 10**400], ids=["2**63", "2**64", "10**400"])
def test_count_past_64_bits_is_refused_at_parse(count):
    # parsing only: no array is sized, so nothing is allocated
    doc = specs_for((4,))[0].to_json()
    assert sn.GroupSpec.from_json({**doc, "count": 2**63 - 1}).count == 2**63 - 1
    with pytest.raises(sn.DataError, match=f"count must be a positive integer below 2\\*\\*63, got {count}$"):
        sn.GroupSpec.from_json({**doc, "count": count})
    assert sn.PartitionPlan.from_counts([2**63 - 1, 1]).counts == (2**63 - 1, 1)
    with pytest.raises(sn.DataError, match="planned counts must be positive integers below 2"):
        sn.PartitionPlan.from_counts([count, 1])


def test_group_spec_json_reads_integers_as_floats():
    doc = specs_for((4,))[0].to_json()
    doc["mean"], doc["label_rule"] = [-2, 1], {"kind": "linear-threshold", "weights": [1, 0]}
    spec = sn.GroupSpec.from_json(doc)
    assert repr(spec.mean) == "(-2.0, 1.0)" and repr(spec.label_rule.weights) == "(1.0, 0.0)"
    assert repr(spec.label_rule.bias) == "0.0"
