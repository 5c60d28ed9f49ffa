import json

import pytest

import switchnet as sn


def identity_entries(n):
    return {g: {g} for g in range(n)}


def test_identity_switch_builds_without_warnings():
    table, warnings = sn.build_switch(5, identity_entries(5))
    assert warnings == ()
    assert table.n_units == 5


def test_group_of_units_entry():
    table, _ = sn.build_switch(5, {0: {0}, 1: {1}, 2: {2, 4}, 3: {3}, 4: {4}})
    assert sn.route(table, 2) == (2, 4)


def test_out_of_range_unit_rejected():
    with pytest.raises(sn.RoutingError, match="out of range"):
        sn.build_switch(5, {0: {7}})


def test_empty_entry_rejected():
    with pytest.raises(sn.RoutingError, match="no units"):
        sn.build_switch(5, {0: set()})


def test_route_identity_mask():
    table, _ = sn.build_switch(5, identity_entries(5))
    assert sn.route(table, 3) == (3,)


def test_route_unknown_group_fallbacks():
    all_active, _ = sn.build_switch(3, {0: {0}}, fallback="all-active")
    assert sn.route(all_active, 9) == (0, 1, 2)
    none_active, _ = sn.build_switch(3, {0: {0}}, fallback="none-active")
    assert sn.route(none_active, 9) == ()
    error_table, _ = sn.build_switch(3, {0: {0}}, fallback="error")
    with pytest.raises(sn.RoutingError, match="group 9"):
        sn.route(error_table, 9)


@pytest.mark.parametrize("fallback", sn.switching.FALLBACKS)
def test_route_returns_ascending_unique_indices(fallback):
    built, _ = sn.build_switch(5, {0: [4, 0, 2, 2, 0], 1: [3]}, fallback=fallback)
    direct = sn.SwitchTable(n_units=5, entries={0: [4, 0, 2, 2, 0], 1: [3]}, fallback=fallback)
    for table in (built, direct):
        for group in (0, 1) if fallback == "error" else (0, 1, 9):
            active = sn.route(table, group)
            assert type(active) is tuple and list(active) == sorted(set(active))


def test_switch_table_stores_each_entry_as_a_set():
    direct = sn.SwitchTable(n_units=3, entries={0: [2, 0, 2]})
    built, _ = sn.build_switch(3, {0: [2, 0, 2]})
    assert direct.entries == {0: frozenset({0, 2})}
    assert type(direct.entries[0]) is frozenset
    assert direct.to_json() == built.to_json()


def test_masks_match_configuration_exhaustively():
    entries = {0: {0, 2}, 1: {1}, 2: {3, 4}, 3: {0, 1, 2, 3, 4}, 4: {2}}
    table, _ = sn.build_switch(5, entries)
    for group in range(5):
        active = sn.route(table, group)
        for unit in range(5):
            assert (unit in active) == (unit in entries[group])


def test_configured_groups_have_nonempty_masks():
    table, _ = sn.build_switch(4, {0: {1}, 1: {0, 3}})
    for group in table.entries:
        assert sn.route(table, group)


def test_dead_unit_warning():
    _, warnings = sn.build_switch(3, {0: {0}, 1: {0}})
    assert any("dead unit" in w and "1" in w for w in warnings)
    assert any("unit 2" in w for w in warnings)


def test_missing_expected_group_warning():
    for fallback in ("all-active", "none-active"):
        _, warnings = sn.build_switch(2, {0: {0}, 1: {1}}, fallback, expected_groups=[0, 1, 2, 3])
        assert warnings == ("group 2 has no switch entry", "group 3 has no switch entry")


def test_missing_expected_group_refused_under_error_fallback():
    # the default fallback: such a group could never be routed
    with pytest.raises(sn.RoutingError,
                       match=r"^no switch entry for group\(s\) \[2, 3\] \(fallback=error\)$"):
        sn.build_switch(2, {0: {0}, 1: {1}}, expected_groups=[0, 1, 2, 3])


def test_switch_json_roundtrip():
    table, _ = sn.build_switch(5, {0: {0}, 1: {1, 4}}, fallback="none-active")
    assert sn.SwitchTable.from_json(json.loads(json.dumps(table.to_json()))) == table


BAD_GROUP_KEYS = [" 1 ", "01", "1.0", "a", "-1", "", "\u0661", -1, 1.0, True, None]


@pytest.mark.parametrize("key", BAD_GROUP_KEYS, ids=repr)
def test_switch_rejects_non_canonical_group_key(key):
    with pytest.raises(sn.RoutingError, match="switch group key"):
        sn.build_switch(2, {0: {0}, key: {1}})
    with pytest.raises(sn.RoutingError, match="switch group key"):
        sn.SwitchTable.from_json({"n_units": 2, "fallback": "error", "entries": {"0": [0], key: [1]}})
    with pytest.raises(sn.RoutingError, match="switch group key"):
        sn.SwitchTable(n_units=2, entries={0: frozenset({0}), key: frozenset({1})})


def test_switch_reads_decimal_string_keys_as_group_ids():
    table, _ = sn.build_switch(2, {"0": [0], "10": [1], 3: [1]})
    assert table.entries == {0: {0}, 10: {1}, 3: {1}}


@pytest.mark.parametrize("n_units", [2.7, "2", True])
def test_switch_json_rejects_non_integer_n_units(n_units):
    doc = {"n_units": n_units, "fallback": "error", "entries": {"0": [0]}}
    with pytest.raises(sn.RoutingError, match="n_units must be an integer"):
        sn.SwitchTable.from_json(doc)


@pytest.mark.parametrize("unit", [0.5, True, 1.0], ids=repr)
def test_switch_table_rejects_non_integer_unit_index(unit):
    # built directly, with no `build_switch` to check the entry first
    with pytest.raises(sn.RoutingError, match=r"group 0: unit indices must be integers, got \["):
        sn.SwitchTable(n_units=2, entries={0: frozenset({unit})})


def test_invalid_fallback():
    with pytest.raises(sn.RoutingError, match="fallback"):
        sn.build_switch(2, {0: {0}}, fallback="explode")
