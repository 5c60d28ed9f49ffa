"""Property tests: `Dataset.row_index` against a dict from id to row, on ids 0..n-1 in row
order, permuted and gapped, with queries holding unknown, negative and past-int64 ids and
bool or float ones; and a `PartitionSet`'s subset check against a unit-by-unit scan over
Python sets, its JSON round trip and its equality by value.

Needs `hypothesis` (the `test` extra); the module is skipped without it.
"""
import json
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import switchnet as sn  # noqa: E402

INT64 = range(-2**63, 2**63)


@st.composite
def id_columns(draw):
    """The ids of a dataset's rows: 0..n-1 in row order, a permutation of them, or gapped."""
    n = draw(st.integers(0, 12))
    layout = draw(st.sampled_from(["rows", "permuted", "gapped"]))
    if layout == "rows":
        return list(range(n))
    if layout == "permuted":
        return draw(st.permutations(range(n)))
    return draw(st.lists(st.one_of(st.integers(0, 40), st.integers(0, 2**63 - 1)),
                         min_size=n, max_size=n, unique=True))


def _dataset(ids):
    n = len(ids)
    return sn.Dataset(dim=1, groups=((0, "g"),), ids=ids, row_groups=[0] * n, labels=[0] * n,
                      features=np.zeros((n, 1)))


EDGES = [-1, 0, 1, 12, 2**63 - 1, 2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1, 2**100]
NOT_INTEGERS = st.sampled_from([3.0, 0.5, -0.0, float("nan"), True, False, np.float64(2.0), np.bool_(True)])


@st.composite
def queries(draw, ids):
    """An id list for `row_index`: known ids, edge values and any integer, now and then a
    bool or a float; as a list, a tuple, an int64 or uint64 array when every value fits one."""
    known = [st.sampled_from(ids)] if ids else []
    value = st.one_of(*known, st.sampled_from(EDGES), st.integers(-2**70, 2**70))
    if draw(st.booleans()):
        value = st.one_of(value, NOT_INTEGERS)
    query = draw(st.lists(value, max_size=8))
    form = draw(st.sampled_from(["list", "tuple", "int64", "uint64"]))
    if form == "tuple":
        return tuple(query)
    if form == "int64" and all(type(q) is int and q in INT64 for q in query):
        return np.array(query, dtype=np.int64)
    if form == "uint64" and all(type(q) is int and 0 <= q < 2**64 for q in query):
        return np.array(query, dtype=np.uint64)
    return query


@st.composite
def lookups(draw):
    ids = draw(id_columns())
    return ids, draw(queries(ids))


@settings(max_examples=400, deadline=None)
@given(lookups())
@example(([0, 1, 2], [1, 5, 2**64]))  # an unknown id before one past int64 is named first
@example(([0, 1, 2], [1, 2**64, 5]))
@example(([7, 3], [3, -1]))
@example(([0, 1, 2], np.array([2, 2**63], dtype=np.uint64)))
@example(([], [0]))
@example(([0, 1, 2], [3.0]))  # never id 3's row, nor truncated
@example(([5, 9], np.array([9.0])))
def test_row_index_is_a_dict_lookup(case):
    ids, query = case
    dataset = _dataset(ids)
    row_of = {i: r for r, i in enumerate(ids)}
    values = query.tolist() if isinstance(query, np.ndarray) else list(query)
    not_integer = [v for v in values if isinstance(v, (bool, float, np.bool_, np.floating))]
    unknown = [v for v in values if v not in row_of]
    if not_integer:
        message = f"observation ids must be integers, got {not_integer[0]!r}"
    elif unknown:
        message = f"unknown observation id {unknown[0]}"
    else:
        rows = dataset.row_index(query)
        assert rows.dtype == np.intp and rows.tolist() == [row_of[v] for v in values]
        return
    with pytest.raises(sn.DataError, match=f"^{re.escape(message)}$"):
        dataset.row_index(query)


def _scan(counts, subsets):
    """The fault a unit-by-unit check over Python sets names first, or None."""
    claimed = set()
    for unit, (count, ids) in enumerate(zip(counts, subsets)):
        if len(ids) != count:
            return f"unit {unit}: subset has {len(ids)} ids, plan says {count}"
        bad = [i for i in ids if isinstance(i, (bool, float, np.bool_))]
        if bad:
            return f"unit {unit}: subset ids must be integers, got {bad[0]!r}"
        past = [i for i in ids if i not in INT64]
        if past:
            return f"unit {unit}: subset ids must fit in 64 bits, got {past[0]}"
        if len(set(ids)) != len(ids):
            return f"unit {unit}: subset repeats an observation id"
        if claimed.intersection(ids):
            return f"subsets overlap on observation ids {sorted(claimed.intersection(ids))}"
        claimed.update(ids)
    return None


ID = st.one_of(st.integers(0, 12), st.integers(-2**64, 2**64))


@st.composite
def partition_cases(draw):
    subsets = draw(st.lists(st.lists(st.one_of(ID, NOT_INTEGERS) if draw(st.booleans()) else ID,
                                     min_size=1, max_size=5), min_size=1, max_size=4))
    counts = [len(ids) for ids in subsets]
    if draw(st.booleans()):  # a plan that one unit's subset does not match
        unit = draw(st.integers(0, len(counts) - 1))
        counts[unit] += draw(st.sampled_from([1, 2]))
    return counts, subsets


@settings(max_examples=400, deadline=None)
@given(partition_cases(), st.integers(0, 2**32))
@example(([2, 1, 1], [[0, 1], [1], [2.0]]), 0)  # an overlap before a later unit's float
@example(([2, 2], [[0, 1], [2, 2]]), 0)
@example(([2, 2], [[0, 1], [1, 1]]), 0)  # a repeat in a unit comes before its overlap
@example(([1, 1], [[2**63], [0]]), 0)
def test_partition_set_checks_subsets_as_a_unit_by_unit_scan(case, seed):
    counts, subsets = case
    plan = sn.PartitionPlan.from_counts(counts)
    fault = _scan(counts, subsets)
    if fault is not None:
        with pytest.raises(sn.DataError, match=f"^{re.escape(fault)}$"):
            sn.PartitionSet(subsets=tuple(subsets), plan=plan, seed=seed)
        return
    parts = sn.PartitionSet(subsets=tuple(subsets), plan=plan, seed=seed)
    for column, ids in zip(parts.subsets, subsets):  # the given order, as read-only int64
        assert column.dtype == np.int64 and not column.flags.writeable and column.tolist() == ids
    assert parts.assigned_ids().tolist() == sorted(i for ids in subsets for i in ids)
    doc = json.loads(json.dumps(parts.to_json()))
    again = sn.PartitionSet.from_json(doc)
    assert again == parts and hash(again) == hash(parts)
    assert again.to_json() == doc
    moved = [list(ids) for ids in subsets]
    moved[-1][-1] = next(i for i in range(-1, -100, -1) if i not in parts.assigned_ids())
    other = sn.PartitionSet(subsets=tuple(moved), plan=plan, seed=seed)
    assert other != parts and parts != sn.PartitionSet(subsets=tuple(subsets), plan=plan, seed=seed + 1)
