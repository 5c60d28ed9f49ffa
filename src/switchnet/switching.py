"""The dynamic switching mechanism: a configured map from input group to active units.

Routing keys on the observation's group tag. The table is plain configuration,
not a learned gate; a unit not selected for a group contributes exactly zero
activation downstream.
"""

from dataclasses import dataclass
from pathlib import Path

from .errors import RoutingError
from .jsonio import is_int, read_json, write_json

FALLBACKS = ("error", "all-active", "none-active")


@dataclass(frozen=True)
class ActivationMask:
    bits: tuple[bool, ...]

    def active_indices(self) -> tuple[int, ...]:
        return tuple(i for i, on in enumerate(self.bits) if on)

    def without(self, unit: int) -> "ActivationMask":
        """Copy with one unit forced inactive (used for ablation)."""
        return ActivationMask(bits=tuple(on and i != unit for i, on in enumerate(self.bits)))


@dataclass(frozen=True)
class SwitchTable:
    n_units: int
    entries: dict
    fallback: str = "error"

    def __post_init__(self):
        if self.n_units < 1:
            raise RoutingError(f"n_units must be >= 1, got {self.n_units}")
        if self.fallback not in FALLBACKS:
            raise RoutingError(f"unknown fallback {self.fallback!r}")
        for group, units in self.entries.items():
            if not units:
                raise RoutingError(f"group {group}: switch entry has no units")
            bad = [u for u in units if not 0 <= u < self.n_units]
            if bad:
                raise RoutingError(f"group {group}: unit indices {bad} out of range for {self.n_units} units")

    def to_json(self) -> dict:
        return {"n_units": self.n_units, "fallback": self.fallback,
                "entries": {str(g): sorted(self.entries[g]) for g in sorted(self.entries)}}

    @classmethod
    def from_json(cls, obj: dict) -> "SwitchTable":
        entries = {int(g): _unit_set(g, units) for g, units in obj["entries"].items()}
        return cls(n_units=int(obj["n_units"]), entries=entries, fallback=obj.get("fallback", "error"))


def _unit_set(group, units) -> frozenset:
    """A switch entry's unit indices, each checked to be an integer before the set merges any."""
    units = list(units)
    if not all(map(is_int, units)):
        raise RoutingError(f"group {group}: unit indices must be integers, got {units}")
    return frozenset(units)


def build_switch(n_units: int, entries, fallback: str = "error",
                 expected_groups=None) -> tuple[SwitchTable, tuple[str, ...]]:
    """Validate a switch configuration.

    Returns the immutable table plus diagnostics: a warning per unit that no
    group ever activates (dead unit) and per expected group with no entry.
    Dead units are warnings, not errors; probe analysis still evaluates them.
    """
    table = SwitchTable(n_units=n_units,
                        entries={int(g): _unit_set(g, units) for g, units in dict(entries).items()},
                        fallback=fallback)
    warnings = []
    routed = {u for units in table.entries.values() for u in units}
    for u in range(n_units):
        if u not in routed:
            warnings.append(f"unit {u} appears in no switch entry (dead unit)")
    if expected_groups is not None:
        for g in expected_groups:
            if g not in table.entries:
                warnings.append(f"group {g} has no switch entry")
    return table, tuple(warnings)


def route(table: SwitchTable, group: int) -> ActivationMask:
    """Mask with bits set exactly for the group's configured units."""
    units = table.entries.get(group)
    if units is None:
        if table.fallback == "error":
            raise RoutingError(f"no switch entry for group {group} (fallback=error)")
        if table.fallback == "all-active":
            return ActivationMask(bits=(True,) * table.n_units)
        return ActivationMask(bits=(False,) * table.n_units)
    return ActivationMask(bits=tuple(u in units for u in range(table.n_units)))


def save_switch(table: SwitchTable, path) -> None:
    write_json(table.to_json(), path)


def load_switch(path) -> SwitchTable:
    return SwitchTable.from_json(read_json(Path(path)))
