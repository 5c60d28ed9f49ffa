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
    mask = sn.route(table, 2)
    assert mask.bits == (False, False, True, False, True)


def test_out_of_range_unit_rejected():
    with pytest.raises(sn.RoutingError, match="out of range"):
        sn.build_switch(5, {0: {7}})


def test_empty_entry_rejected():
    with pytest.raises(sn.RoutingError, match="no units"):
        sn.build_switch(5, {0: set()})


def test_route_identity_mask():
    table, _ = sn.build_switch(5, identity_entries(5))
    assert sn.route(table, 3).bits == (False, False, False, True, False)


def test_route_unknown_group_fallbacks():
    all_active, _ = sn.build_switch(3, {0: {0}}, fallback="all-active")
    assert sn.route(all_active, 9).bits == (True, True, True)
    none_active, _ = sn.build_switch(3, {0: {0}}, fallback="none-active")
    assert sn.route(none_active, 9).bits == (False, False, False)
    error_table, _ = sn.build_switch(3, {0: {0}}, fallback="error")
    with pytest.raises(sn.RoutingError, match="group 9"):
        sn.route(error_table, 9)


def test_masks_match_configuration_exhaustively():
    entries = {0: {0, 2}, 1: {1}, 2: {3, 4}, 3: {0, 1, 2, 3, 4}, 4: {2}}
    table, _ = sn.build_switch(5, entries)
    for group in range(5):
        mask = sn.route(table, group)
        for unit in range(5):
            assert mask.bits[unit] == (unit in entries[group])


def test_configured_groups_have_nonempty_masks():
    table, _ = sn.build_switch(4, {0: {1}, 1: {0, 3}})
    for group in table.entries:
        assert sn.route(table, group).active_indices()


def test_dead_unit_warning():
    _, warnings = sn.build_switch(3, {0: {0}, 1: {0}})
    assert any("dead unit" in w and "1" in w for w in warnings)
    assert any("unit 2" in w for w in warnings)


def test_missing_expected_group_warning():
    _, warnings = sn.build_switch(2, {0: {0}, 1: {1}}, expected_groups=[0, 1, 2])
    assert any("group 2" in w for w in warnings)


def test_switch_json_roundtrip():
    table, _ = sn.build_switch(5, {0: {0}, 1: {1, 4}}, fallback="none-active")
    assert sn.SwitchTable.from_json(json.loads(json.dumps(table.to_json()))) == table


@pytest.mark.parametrize("n_units", [2.7, "2", True])
def test_switch_json_rejects_non_integer_n_units(n_units):
    doc = {"n_units": n_units, "fallback": "error", "entries": {"0": [0]}}
    with pytest.raises(sn.RoutingError, match="n_units must be an integer"):
        sn.SwitchTable.from_json(doc)


def test_invalid_fallback():
    with pytest.raises(sn.RoutingError, match="fallback"):
        sn.build_switch(2, {0: {0}}, fallback="explode")
