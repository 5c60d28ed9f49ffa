"""Property tests: the dataset CSV round-trip and the row view of the columns, on generated
names and features, and the fault each dataset builder reports, against a row-by-row scan.

Needs `hypothesis` (the `test` extra); the module is skipped without it.
"""
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import switchnet as sn  # noqa: E402

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
