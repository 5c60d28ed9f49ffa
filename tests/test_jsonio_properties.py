"""Property tests: `jsonio.floats` against Python's `float()` on generated JSON values, among
them integers past float range, the infinities `1e400` parses to, booleans, strings and null;
and `jsonio.write_json` against `json.dumps(indent=2, sort_keys=True)` on nested JSON values
and on lists of floats, finite and not, among ints and bools, in lists, tuples and empty containers.

Needs `hypothesis` (the `test` extra); the module is skipped without it.
"""
import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import switchnet as sn  # noqa: E402
from switchnet.jsonio import floats, write_json  # noqa: E402

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


# what write_json writes by a join of its own, and what it must not: lists of ints among bools,
# past 64 bits, negative, empty, beside floats, under string keys (non-ASCII included) or int keys
INTS = st.one_of(st.integers(), st.integers(2**63, 2**200).flatmap(lambda n: st.sampled_from([n, -n])))
SCALARS = st.one_of(INTS, st.booleans(), st.none(), st.floats(), st.text(max_size=4))
INT_LISTS = st.one_of(st.lists(INTS, max_size=5), st.lists(st.one_of(INTS, st.booleans()), max_size=4),
                      st.lists(st.one_of(INTS, st.floats()), max_size=4))
KEYS = st.text(st.characters(exclude_categories=("Cs",)), max_size=4)
JSON_VALUES = st.recursive(st.one_of(SCALARS, INT_LISTS),
                           lambda inner: st.one_of(st.lists(inner, max_size=3),
                                                   st.dictionaries(KEYS, inner, max_size=4),
                                                   st.dictionaries(st.integers(), inner, max_size=2)),
                           max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({"non_overlapping": [3, 5, 8], "overlapping": [1], "holdout_fraction": 0.2})
@example({"subsets": {"0": [1, 2], "1": [3]}, "plan": [[0, 2], [1, 1]], "seed": 7})
@example({"é": {"ids": [2**64, -1, 0]}, "flags": [True, 1, False], "none": [], "mixed": [1, 1.0]})
@example([1, 2, 3])
@example({"a": {"b": {"c": [0]}, "d": {}}})
@example({"a": {1: [2, 3], 0: [1]}})  # json writes an int key as a string, after sorting the ints
def test_write_json_is_json_dumps_indent_2_sorted(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    write_json(obj, path)
    assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


# the floats write_json joins by `float.__repr__`, and those it must leave to json: the signed
# zero, the repr boundaries at 1e16 and 1e-05, the smallest subnormal, nan and the infinities
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 1e16, 9999999999999998.0, 1e-05, 0.0001, 5e-324, -5e-324,
                               1.7976931348623157e308, float("nan"), float("inf"), float("-inf")])
FLOATS = st.one_of(st.floats(), EDGE_FLOATS)
FLOAT_LISTS = st.one_of(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5),
                        st.lists(FLOATS, max_size=5),
                        st.lists(st.one_of(FLOATS, st.integers(), st.booleans()), max_size=5))
FLOAT_VALUES = st.recursive(st.one_of(FLOAT_LISTS, FLOAT_LISTS.map(tuple), st.just([]), st.just({})),
                            lambda inner: st.one_of(st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
                                                    st.dictionaries(KEYS, inner, max_size=3)),
                            max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(FLOAT_VALUES)
@example([-0.0, 1e16, 1e-05, 5e-324])
@example([0.5, float("nan"), float("inf"), -1.5])
@example({"w": [1.0, 2, True, None], "e": ([], {}, ()), "t": (0.25, -0.0)})
@example([[[]], {"a": []}, {"b": {}}])
def test_write_json_writes_float_lists_as_json_dumps(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    write_json(obj, path)
    assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
