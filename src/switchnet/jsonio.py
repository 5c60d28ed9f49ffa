"""JSON files: one deterministic layout for every file written, one reader for every input."""

import json
from pathlib import Path

from .errors import DataError, SwitchNetError


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_input(path, what: str, parse=lambda doc: doc):
    """`parse` the JSON file at `path` (UTF-8, a leading byte-order mark skipped).
    A file that cannot be read (a directory, say), is not UTF-8 or JSON, lacks a
    key `parse` needs, has a value of the wrong JSON type where `parse` looks (a
    list for an object, say) or fails its checks is a DataError naming the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as exc:  # a directory, say
        raise DataError(f"{what} {path} cannot be read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not UTF-8 text ({exc.reason})") from None
    except ValueError as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from None
    try:
        return parse(doc)
    except KeyError as exc:
        raise DataError(f"{what} {path} lacks key {exc}") from None
    except (TypeError, AttributeError) as exc:  # e.g. `[]` indexed by a key, or `.items()` on it
        raise DataError(f"{what} {path} has the wrong shape: {exc}") from None
    except SwitchNetError as exc:
        raise DataError(f"{what} {path}: {exc}") from None


def is_int(value) -> bool:
    """True for a JSON integer. Booleans are ints to Python, but `true` is no count or index."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """True for a JSON number (integer or float); `true`, `"0.5"` and `null` are none."""
    return is_int(value) or isinstance(value, float)
