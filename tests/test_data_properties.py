"""Property tests: the dataset CSV round-trip and the row view of the columns, on generated
names and features.

Needs `hypothesis` (the `test` extra); the module is skipped without it.
"""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import switchnet as sn  # noqa: E402

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
