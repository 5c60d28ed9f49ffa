"""Property tests: the dataset CSV round-trip and the row view of the columns, on generated
names and features; the fault `Dataset` and `load_dataset` report, against a row-by-row scan;
and `load_dataset` on generated CSV bytes against its strict reader alone.

Needs `hypothesis` (the `test` extra); the module is skipped without it.
"""
import io
import math
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, example, find, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import switchnet as sn  # noqa: E402
from switchnet import data  # noqa: E402

import oracle  # noqa: E402

FEATURES = st.floats(allow_nan=False, allow_infinity=False)
NAMES = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n\r"), max_size=12)


@st.composite
def datasets(draw):
    dim = draw(st.integers(1, 3))
    names = draw(st.lists(NAMES, min_size=1, max_size=4))
    n_obs = draw(st.integers(0, 8))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n_obs, max_size=n_obs, unique=True))
    observations = tuple(
        sn.Observation(id=i, group=draw(st.integers(0, len(names) - 1)),
                       label=draw(st.integers(0, 1)),
                       features=tuple(draw(FEATURES) for _ in range(dim)))
        for i in ids)
    return observations, sn.Dataset.from_observations(dim=dim, groups=tuple(enumerate(names)),
                                                      observations=observations)


@settings(max_examples=80, deadline=None)
@given(datasets())
def test_observation_returns_the_row_it_was_built_from(case):
    rows, dataset = case
    assert dataset.ids.tolist() == [o.id for o in rows]
    for row in rows:
        assert repr(dataset.observation(row.id)) == repr(row)


@settings(max_examples=80, deadline=None)
@given(datasets())
def test_save_load_roundtrip(tmp_path_factory, case):
    _, dataset = case
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    sn.save_dataset(dataset, path)
    loaded = sn.load_dataset(path)
    assert loaded == dataset
    # equal as values, and bit for bit (the sign of zero included)
    assert repr(loaded.features.tolist()) == repr(dataset.features.tolist())


# a fault injected into a valid row: each breaks one row rule
ROW_FAULTS = {
    "negative id": lambda row, n_groups, earlier: {**row, "id": -1 - row["id"]},
    "negative group": lambda row, n_groups, earlier: {**row, "group": -1},
    "undeclared group": lambda row, n_groups, earlier: {**row, "group": n_groups + row["group"]},
    "label 2": lambda row, n_groups, earlier: {**row, "label": 2},
    "nan": lambda row, n_groups, earlier: {**row, "features": (math.nan, *row["features"][1:])},
    "inf": lambda row, n_groups, earlier: {**row, "features": (*row["features"][:-1], math.inf)},
    "-inf": lambda row, n_groups, earlier: {**row, "features": (-math.inf, *row["features"][1:])},
    "repeated id": lambda row, n_groups, earlier: {**row, "id": earlier[-1]["id"]} if earlier else row,
}


@st.composite
def faulty_rows(draw):
    """(dim, n_groups, rows): a few rows with unique ids, up to two injected faults on each."""
    dim = draw(st.integers(1, 2))
    n_groups = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(0, 50), min_size=n_rows, max_size=n_rows, unique=True))
    rows = []
    for i in ids:
        row = {"id": i, "group": draw(st.integers(0, n_groups - 1)), "label": draw(st.integers(0, 1)),
               "features": tuple(draw(FEATURES) for _ in range(dim))}
        for fault in draw(st.lists(st.sampled_from(sorted(ROW_FAULTS)), max_size=2)):
            row = ROW_FAULTS[fault](row, n_groups, rows)
        rows.append(row)
    return dim, n_groups, rows


def _groups(n_groups):
    return tuple((g, f"g{g}") for g in range(n_groups))


def _columns(rows):
    return ([r["id"] for r in rows], [r["group"] for r in rows], [r["label"] for r in rows],
            [r["features"] for r in rows])


@settings(max_examples=300, deadline=None)
@given(faulty_rows())
def test_dataset_reports_the_first_fault_of_a_row_by_row_scan(case):
    dim, n_groups, rows = case
    columns = _columns(rows)
    fault = oracle.dataset_fault(*columns, n_groups)
    if fault is None:
        sn.Dataset(dim, _groups(n_groups), *columns)
    else:
        with pytest.raises(sn.DataError) as info:
            sn.Dataset(dim, _groups(n_groups), *columns)
        assert str(info.value) == fault[1]


@settings(max_examples=300, deadline=None)
@given(faulty_rows())
def test_load_dataset_reports_the_scan_fault_with_its_line(tmp_path_factory, case):
    dim, n_groups, rows = case
    lines = [f"# group {g}: {name}" for g, name in _groups(n_groups)]
    lines.append(",".join(["id", "group", "label"] + [f"f{i}" for i in range(dim)]))
    header_line = len(lines)
    lines += [",".join([str(r["id"]), str(r["group"]), str(r["label"]), *map(repr, r["features"])])
              for r in rows]
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    fault = oracle.dataset_fault(*_columns(rows), n_groups)
    if fault is None:
        assert sn.load_dataset(path) == sn.Dataset(dim, _groups(n_groups), *_columns(rows))
    else:
        with pytest.raises(sn.DataError) as info:
            sn.load_dataset(path)
        assert str(info.value) == f"{fault[1]}, line {header_line + fault[0] + 1}"


# ------------------------------------------------ the C reader against the strict reader

SPACES = " \t\x0b\x0c\x85\xa0　"  # what Python's int() and float() strip around a number
# numpy strips \x1c-\x1f too, and Python's numbers refuse them
ODD_SPACES = SPACES + "\x1c\x1d\x1e\x1f"
ODD_INTS = st.sampled_from(["+3", "-0", "-1", "00", "1_0", "1.0", "1e1", "", "٣", "３", "0x1", "- 1", "#",
                            str(2**63), str(-2**63), str(-2**63 - 1), str(2**64 + 1)])
NUMBERS = st.one_of(FEATURES.map(repr), FEATURES.map("{:.3e}".format),
                    st.sampled_from(["1.", ".5", "-0", "+2", "1E3", "-1e-400", "1e400", "inf", "-Infinity",
                                     "+nan", "NaN", "iNf"]))
ODD_NUMBERS = st.sampled_from(["1_0.5", "٣.5", "１", "0x1p3", "1d5", "-", "", ".", "1#2", "nan(1)", "infinit"])


@st.composite
def cells(draw, values, odd_values=None):
    """A cell from `values` after a space both readers strip; given `odd_values`,
    sometimes one from either, with spaces the readers might strip differently
    around it, and maybe quoted."""
    if odd_values is not None and draw(st.integers(0, 4)) == 0:
        padding = st.text(st.sampled_from(ODD_SPACES), max_size=2)
        cell = draw(padding) + draw(st.one_of(values, odd_values)) + draw(padding)
        return f'"{cell}"' if draw(st.integers(0, 4)) == 0 else cell
    return draw(st.text(st.sampled_from(SPACES), max_size=1)) + draw(values)


@st.composite
def csv_files(draw):
    """The bytes of a dataset CSV: in a plain file, cells both readers take, with
    spaces, number spellings and ids up to 64 bits; in an odd one also cells,
    columns and lines either might refuse or read differently; any line end and
    a byte-order mark."""
    odd = draw(st.booleans())
    dim = draw(st.integers(1, 2))
    n_groups = draw(st.integers(1, 2))
    lines = [f"# group {g}: g{g}" for g in range(n_groups)] if draw(st.booleans()) else []
    lines.append(",".join(["id", "group", "label"] + [f"f{i}" for i in range(dim)]))
    odd_ints, odd_numbers = (ODD_INTS, ODD_NUMBERS) if odd else (None, None)
    for r in range(draw(st.integers(0, 6))):
        ints = (st.one_of(st.just(str(r)), st.integers(0, 2**63 - 1).map(str)),
                st.integers(0, n_groups - 1).map(str), st.integers(0, 1).map(str))
        row = [draw(cells(values, odd_ints)) for values in ints]
        row += [draw(cells(NUMBERS, odd_numbers)) for _ in range(dim)]
        if odd and draw(st.integers(0, 9)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + [""]  # a column short, or a trailing comma
        lines.append(",".join(row))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "# a note", "#"] + odd * [" ", "\t", "\x0c", "\x1c"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (draw(st.sampled_from(["", "\ufeff"])) + end.join(lines) + end).encode("utf-8")


def _load(load, path):
    try:
        return load(path)
    except sn.DataError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(csv_files())
# a line past the csv module's field size limit: a long number numpy reads as 1.0
@example(b"id,group,label,f0\n0,0,1," + b"0" * 131_072 + b"1\n")
# a byte numpy strips around a number, and Python's numbers refuse
@example(b"id,group,label,f0\n0,0,1,\x1c0.5\n")
@example(b"id,group,label,f0\n\x1f0,0,1,0.5\n")
# an integer cell numpy releases from 1.23 on may read through a float, as 1, with only a DeprecationWarning
@example(b"id,group,label,f0\n0,0,1.5,0.5\n")
# each side of the plain-body gate: bodies the C reader streams from the bytes, with line numbers
# counted (LF, a CRLF line among LF ones), and bodies the strict reader alone reads (a blank line,
# a comment, a CRLF blank line, a lone CR among CRLF line ends)
@example(b"# group 0: g0\n\nid,group,label,f0\n0,0,1,0.5\n1,0,2,0.5")
@example(b"id,group,label,f0\n0,0,1,0.5\r\n1,0,2,0.5\n")
@example(b"id,group,label,f0\n0,0,1,0.5\n\n1,0,2,0.5\n")
@example(b"id,group,label,f0\n0,0,1,0.5\n# group 0: g0\n1,0,2,0.5\n")
@example(b"id,group,label,f0\r\n0,0,1,0.5\r\n\r\n1,0,2,0.5\r\n")
@example(b"id,group,label,f0\r\n0,0,1,0.5\r1,0,2,0.5\r\n")
# a quote in a plain body: the strict reader alone reads it
@example(b'id,group,label,f0\n0,0,1,"0.5"\n1,0,2,0.5\n')
def test_load_dataset_reads_what_the_strict_reader_reads(tmp_path_factory, raw):
    """An equal dataset, features bit for bit, or the same fault message."""
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    path.write_bytes(raw)
    loaded = _load(sn.load_dataset, path)
    with mock.patch.object(data, "_read_fast", lambda lines, dim: None):  # the strict reader alone
        strict = _load(sn.load_dataset, path)
    if isinstance(strict, str):
        assert loaded == strict
    else:
        assert loaded == strict
        assert loaded.features.tobytes() == strict.features.tobytes()  # -0.0 included


def _c_reader_input(raw):
    """What `_read_csv` hands the C reader for `raw`: "stream" (a plain body, read
    from the bytes), "lines" (anything else) or None (it is not run)."""
    seen = []
    real_read_fast = data._read_fast

    def spy(lines, dim):
        seen.append("stream" if isinstance(lines, io.TextIOWrapper) else "lines")
        return real_read_fast(lines, dim)

    with mock.patch.object(data, "_read_fast", spy):
        try:
            data._read_csv(raw, "ds.csv")
        except (sn.DataError, UnicodeDecodeError):
            pass
    return seen[0] if seen else None


@pytest.mark.parametrize("side", ["stream", None])
def test_csv_files_draw_both_sides_of_the_plain_gate(side):
    """Among the files `test_load_dataset_reads_what_the_strict_reader_reads` draws,
    some reach the C reader as a plain body's stream and some reach the strict
    reader alone."""
    find(csv_files(), lambda raw: _c_reader_input(raw) == side,
         settings=settings(database=None, phases=[Phase.generate]))
