"""The dynamic switching mechanism: a configured map from input group to active units.

Routing keys on the observation's group tag. The table is plain configuration,
not a learned gate; a unit not selected for a group contributes exactly zero
activation downstream.
"""

from dataclasses import dataclass

from .errors import RoutingError
from .jsonio import is_int

FALLBACKS = ("error", "all-active", "none-active")


@dataclass(frozen=True)
class SwitchTable:
    n_units: int
    entries: dict
    fallback: str = "error"

    def __post_init__(self):
        if not is_int(self.n_units) or self.n_units < 1:
            raise RoutingError(f"n_units must be an integer >= 1, got {self.n_units!r}")
        if self.fallback not in FALLBACKS:
            raise RoutingError(f"unknown fallback {self.fallback!r}")
        for group, units in self.entries.items():
            if not is_int(group) or group < 0:
                raise RoutingError("switch group key must be a non-negative integer or its decimal "
                                   f"string, got {group!r}")
            if not units:
                raise RoutingError(f"group {group}: switch entry has no units")
            # a range check alone would take 0.5, True or 1.0 for a unit index
            if not all(map(is_int, units)):
                raise RoutingError(f"group {group}: unit indices must be integers, "
                                   f"got {sorted(units, key=repr)}")
            bad = sorted({u for u in units if not 0 <= u < self.n_units})
            if bad:
                raise RoutingError(f"group {group}: unit indices {bad} out of range for {self.n_units} units")
        # each entry as a set, checked first, so a unit listed twice is routed once
        object.__setattr__(self, "entries", {g: frozenset(units) for g, units in self.entries.items()})

    def to_json(self) -> dict:
        return {"n_units": self.n_units, "fallback": self.fallback,
                "entries": {str(g): sorted(self.entries[g]) for g in sorted(self.entries)}}

    @classmethod
    def from_json(cls, obj: dict) -> "SwitchTable":
        return cls(n_units=obj["n_units"], entries=_entries(obj["entries"]),
                   fallback=obj.get("fallback", "error"))


def _group_key(group):
    """A group id's canonical decimal string, as a JSON object key carries it, read as
    the id; any other key is returned as is for the table to accept or reject, so
    `" 1 "`, `"01"`, `"1.0"` and `"a"` never read as group 1."""
    if isinstance(group, str) and group.isascii() and group.isdigit() and str(int(group)) == group:
        return int(group)
    return group


def _entries(entries) -> dict:
    """The mapping group key -> unit indices as group id -> list of unit indices."""
    return {_group_key(g): list(units) for g, units in entries.items()}


def build_switch(n_units: int, entries, fallback: str = "error",
                 expected_groups=None) -> tuple[SwitchTable, tuple[str, ...]]:
    """Validate a switch configuration.

    Returns the immutable table plus diagnostics: a warning per unit that no
    group ever activates (dead unit) and, under the `all-active` and
    `none-active` fallbacks, per expected group with no entry. Under `error`
    such a group could never be routed, so it raises RoutingError here.
    Dead units are warnings, not errors; probe analysis still evaluates them.
    """
    table = SwitchTable(n_units=n_units, entries=_entries(entries), fallback=fallback)
    missing = [g for g in expected_groups or () if g not in table.entries]
    if missing and fallback == "error":
        raise RoutingError(f"no switch entry for group(s) {missing} (fallback=error)")
    routed = {u for units in table.entries.values() for u in units}
    dead = [f"unit {u} appears in no switch entry (dead unit)" for u in range(n_units) if u not in routed]
    return table, tuple(dead + [f"group {g} has no switch entry" for g in missing])


def route(table: SwitchTable, group: int) -> tuple[int, ...]:
    """The group's active unit indices, ascending and each once: exactly its
    configured units, which the table holds as a set; for a group with no entry,
    every unit under `all-active` and none under `none-active`."""
    units = table.entries.get(group)
    if units is None:
        if table.fallback == "error":
            raise RoutingError(f"no switch entry for group {group} (fallback=error)")
        return tuple(range(table.n_units)) if table.fallback == "all-active" else ()
    return tuple(sorted(units))
