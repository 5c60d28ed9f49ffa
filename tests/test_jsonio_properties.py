"""Property tests: `jsonio.floats` against Python's `float()` on generated JSON values, among
them integers past float range, the infinities `1e400` parses to, booleans, strings and null.

Needs `hypothesis` (the `test` extra); the module is skipped without it.
"""
import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import switchnet as sn  # noqa: E402
from switchnet.jsonio import floats  # noqa: E402

# an integer at or past 2**1024 - 2**970 rounds to 2**1024, which float() refuses
PAST_RANGE = st.integers(2**1023, 2**1100).flatmap(lambda n: st.sampled_from([n, -n]))
VALUES = st.one_of(st.integers(), PAST_RANGE, st.floats(),
                   st.sampled_from(["1e400", "-1e400", "1e308", "-0.0"]).map(json.loads),
                   st.booleans(), st.none(), st.text(max_size=4), st.lists(st.integers(), max_size=2))


@settings(max_examples=300, deadline=None)
@given(st.lists(VALUES, max_size=6))
@example([2**1024])
@example([-(2**1024)])
@example([2**1024 - 2**970 - 1])  # the largest integer that rounds to a float
@example([json.loads("1e400")])
@example([1.5, True])
@example(["0.5"])
@example([None])
def test_floats_is_float_of_finite_json_numbers_or_data_error(values):
    try:
        # bool and str are no JSON numbers, though float() takes them
        want = tuple(map(float, values)) if all(type(v) in (int, float) for v in values) else None
    except OverflowError:
        want = None
    if want is None or not all(map(math.isfinite, want)):
        with pytest.raises(sn.DataError, match="^weights must be JSON numbers within float range, got "):
            floats(values, "weights")
    else:
        assert repr(floats(values, "weights")) == repr(want)  # bit for bit, the sign of zero included


def test_floats_names_the_first_value_it_refuses():
    with pytest.raises(sn.DataError, match=r"^w must be JSON numbers within float range, got '2'$"):
        floats([1, "2", None, 10**400], "w")
