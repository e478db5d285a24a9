"""Canonical JSON helpers.

All persisted artifacts go through canonical_dumps so identical inputs
produce identical bytes: sorted keys, fixed separators, repr-exact floats,
trailing newline.

The bytes are defined by the standard library call
``json.dumps(obj, sort_keys=True, indent=1, ensure_ascii=False) + "\\n"``.
With an indent, that call never reaches the C encoder: it walks a chain
of Python generators and joins one small string per token, which is
slow and memory-hungry on large documents such as the route tables.
canonical_dumps writes the same text another way:

- The fast path dispatches on the exact type of each value. Dicts with
  ``str`` keys, lists and tuples are written recursively into one list
  of strings; ``str``, ``int``, ``float``, ``bool`` and ``None`` are
  encoded by the same functions the standard library uses.
- The record path writes a list of plain dicts that share one key set in
  one step: one ``%`` template of the sorted, escaped keys per row,
  filled from column-wise encoded cells. A column of scalars is encoded
  one column at a time; a column whose cells are all plain dicts is
  itself written by the record path one margin deeper, so the battery
  materials, each with its ``composition`` dict, are a single step too.
  The type, length and key checks run over whole lists in C. A list
  declines the record path, and is written item by item instead, when
  its rows, or the dicts in one of its columns, differ in key set, or
  hold an empty dict, a dict subclass, a non-``str`` key or a list.
- Anything else (non-``str`` keys, subclasses such as ``numpy.float64``
  or ``IntEnum``, other containers, a reference cycle) sends the whole
  document to the standard library call, which stays the oracle: its
  output and its errors are what the caller gets.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable

_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode_float(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_SPECIALS.get(text, text)


_SCALARS = {
    str: encode_basestring,
    int: int.__repr__,
    float: _encode_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


class _Unsupported(Exception):
    """The fast path cannot write this value; the standard library will."""


def _rows(items: list, inner: str) -> list[str] | None:
    """Text of each item of a list of plain dicts sharing one key set.

    Each row is written at the margin inner. A column whose cells are all
    plain dicts is written by _rows one margin deeper; any other column
    must hold scalars only. None when the items are not all plain dicts
    with the first one's nonempty set of str keys, when a column holds
    anything else, or when _rows declines a column of dicts.
    """
    first = items[0]
    if (
        not first
        or set(map(type, items)) != {dict}
        or set(map(type, first)) != {str}
        or len(set(map(len, items))) != 1
    ):
        return None
    keys = sorted(first)
    field = inner + " "
    columns = []
    try:
        for k in keys:
            column = list(map(itemgetter(k), items))
            types = set(map(type, column))
            if len(types) == 1:
                (kind,) = types
                if kind is dict:
                    cells = _rows(column, field)
                    if cells is None:
                        return None
                elif kind is float:
                    cells = list(map(float.__repr__, column))
                    if not _FLOAT_SPECIALS.keys().isdisjoint(cells):
                        cells = list(map(_encode_float, column))
                else:
                    encode = _SCALARS.get(kind)
                    if encode is None:
                        return None
                    cells = list(map(encode, column))
            elif types <= _SCALARS.keys():
                cells = [_SCALARS[type(v)](v) for v in column]
            else:
                return None
            columns.append(cells)
    except KeyError:
        return None
    template = (
        "{"
        + field
        + ("," + field).join(
            encode_basestring(k).replace("%", "%%") + ": %s" for k in keys
        )
        + inner
        + "}"
    )
    return [template % row for row in zip(*columns)]


def _write(obj: Any, out: list[str], indent: str) -> None:
    """Append the text of obj to out; indent is its line break and margin."""
    kind = type(obj)
    encode = _SCALARS.get(kind)
    if encode is not None:
        out.append(encode(obj))
        return
    inner = indent + " "
    if kind is dict:
        if not obj:
            out.append("{}")
            return
        if any(type(k) is not str for k in obj):
            raise _Unsupported
        sep = "{" + inner
        for k in sorted(obj):
            out.append(sep + encode_basestring(k) + ": ")
            _write(obj[k], out, inner)
            sep = "," + inner
        out.append(indent + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        rows = _rows(obj, inner) if type(obj[0]) is dict else None
        if rows is not None:
            out.append("[" + inner + ("," + inner).join(rows) + indent + "]")
            return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(indent + "]")
    else:
        raise _Unsupported


def canonical_dumps(obj: Any) -> str:
    out: list[str] = []
    try:
        _write(obj, out, "\n")
    except (_Unsupported, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=1, ensure_ascii=False) + "\n"
    out.append("\n")
    return "".join(out)


def write_json(path: Path | str, obj: Any) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def read_json(path: Path | str) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_json_checked(path: Path | str, error: Callable[[str], Exception], what: str) -> Any:
    """The document in an outside JSON file, or error(message) if it has none.

    The one place that decides a file cannot be read: an OSError, bytes
    that are not UTF-8, invalid JSON, or nesting past the recursion limit.
    The message reads "<what> not readable: <path>[:line:col] (<reason>)".
    """
    try:
        return read_json(path)
    except OSError as exc:
        where, reason = path, f"cannot read: {exc.strerror or exc}"
    except UnicodeDecodeError as exc:
        where, reason = path, f"not UTF-8 at byte {exc.start}"
    except json.JSONDecodeError as exc:
        where, reason = f"{path}:{exc.lineno}:{exc.colno}", f"invalid JSON: {exc.msg}"
    except RecursionError:
        where, reason = path, "invalid JSON: nested too deeply"
    except ValueError as exc:  # such as an integer literal past int's digit limit
        where, reason = path, f"invalid JSON: {exc}"
    raise error(f"{what} not readable: {where} ({reason})")


def digest(data: bytes) -> str:
    """The first 16 hex digits of the sha256 of data."""
    return hashlib.sha256(data).hexdigest()[:16]


def content_hash(obj: Any) -> str:
    """Stable 16-hex-digit digest of a JSON-serializable value."""
    return digest(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8"))
