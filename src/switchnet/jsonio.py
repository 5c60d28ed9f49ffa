"""JSON files: one deterministic layout for every file written, one reader for
every input, and one owner of each rule a value read keeps: an object's keys
(`check_keys`), an integer (`is_int`), a number within float range
(`is_finite`) and finite numbers as floats (`floats`)."""

import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import DataError, SwitchNetError


def write_json(obj, path) -> None:
    """Write `obj` as `json.dumps(obj, indent=2, sort_keys=True)` and a line break.

    `json.dumps` with an indent runs CPython's pure-Python encoder, one call per
    value. So `_layout` walks string-keyed dicts, lists and tuples itself, and
    writes what `json` writes for each value: a list of ints (ids, say) by one
    join of `int.__repr__`, a list of finite floats (weights, say) by one join
    of `float.__repr__`, and a string by `encode_basestring_ascii`. Everything
    else is one `json.dumps` call: a non-finite float, a bool, None, and a dict
    with a key that is no string. The bytes are the same. A 1-D int64 array
    (an id column) is written as its list of ints, with no per-value check."""
    Path(path).write_text(_layout(obj, "") + "\n", encoding="utf-8")


def _layout(obj, outer: str) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, each line after the first led by `outer`."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:  # not bool, which json writes as `true`/`false`
        return int.__repr__(obj)
    if kind is float and math.isfinite(obj):
        return float.__repr__(obj)
    pad = outer + "  "
    if kind is dict and obj and all(type(key) is str for key in obj):
        items = (encode_basestring_ascii(key) + ": " + _layout(obj[key], pad) for key in sorted(obj))
        return "{\n" + pad + (",\n" + pad).join(items) + "\n" + outer + "}"
    if kind is np.ndarray and obj.dtype == np.int64 and obj.ndim == 1 and len(obj):
        items = map(int.__repr__, obj.tolist())
    elif (kind is list or kind is tuple) and obj:
        kinds = set(map(type, obj))
        if kinds == {int}:
            items = map(int.__repr__, obj)
        elif kinds == {float} and all(map(math.isfinite, obj)):
            items = map(float.__repr__, obj)
        else:
            items = (_layout(item, pad) for item in obj)
    else:
        text = json.dumps(obj, indent=2, sort_keys=True)
        return text.replace("\n", "\n" + outer) if outer else text
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + outer + "]"


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def loads(text: str):
    """The JSON document `text`; `NaN`, `Infinity` and `-Infinity` are invalid JSON."""
    return json.loads(text, parse_constant=_refuse_constant)


def read_input(path, what: str, parse=lambda doc: doc):
    """`parse` the JSON file at `path` (UTF-8, a leading byte-order mark skipped).
    A file that cannot be read (a directory, say), is not UTF-8 or JSON, lacks a
    key `parse` needs, has a value of the wrong JSON type where `parse` looks (a
    list for an object, say) or fails its checks is a DataError naming the file."""
    try:
        doc = loads(Path(path).read_text(encoding="utf-8-sig"))
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
    except (TypeError, AttributeError, ValueError) as exc:  # e.g. `[]` indexed by a key, a pair unpacked from `[0]`
        raise DataError(f"{what} {path} has the wrong shape: {exc}") from None
    except SwitchNetError as exc:
        raise DataError(f"{what} {path}: {exc}") from None


def is_int(value) -> bool:
    """True for a JSON integer. Booleans are ints to Python, but `true` is no count or index."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """True for a JSON number (integer or float); `true`, `"0.5"` and `null` are none."""
    return is_int(value) or isinstance(value, float)


def is_finite(value) -> bool:
    """True for a JSON number within float range: not an integer past it, nor a
    float parsed as infinity (`1e400`)."""
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:  # an integer past float range
        return False


def floats(values, what: str) -> tuple:
    """`values` as finite floats: a value `is_finite` refuses is a DataError naming it."""
    values = tuple(values)
    for value in values:
        if not is_finite(value):
            raise DataError(f"{what} must be JSON numbers within float range, got {value!r}")
    return tuple(map(float, values))


def check_keys(obj, required: tuple, optional: tuple, what: str, error=DataError) -> None:
    """Refuse (as `error`) a JSON object with a key outside `required` and `optional`, or
    without one of `required`, naming the keys: a misspelt key is an error,
    never a setting silently left at its default."""
    if not isinstance(obj, dict):
        raise error(f"{what} must be a JSON object, got {obj!r}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise error(f"unknown keys in {what}: {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise error(f"missing keys in {what}: {missing}")
