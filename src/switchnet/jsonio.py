"""Deterministic JSON file helpers: sorted keys, fixed indentation, one layout."""

import json
from pathlib import Path


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def is_int(value) -> bool:
    """True for a JSON integer. Booleans are ints to Python, but `true` is no count or index."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """True for a JSON number (integer or float); `true`, `"0.5"` and `null` are none."""
    return is_int(value) or isinstance(value, float)
