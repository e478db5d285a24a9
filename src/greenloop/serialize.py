"""Canonical JSON helpers.

All persisted artifacts are canonical JSON, so identical inputs produce
identical bytes: sorted keys, fixed separators, repr-exact floats,
trailing newline. canonical_dumps returns the text; write_json writes
its UTF-8 bytes to a file.

The bytes are defined by the standard library call
``json.dumps(obj, sort_keys=True, indent=1, ensure_ascii=False) + "\\n"``.
With an indent, that call never reaches the C encoder: it walks a chain
of Python generators and joins one small string per token, which is
slow and memory-hungry on large documents such as the route tables.
canonical_dumps writes the same text another way:

- The fast path dispatches on the exact type of each value. Dicts with
  ``str`` keys, lists and tuples are written recursively into one list
  of strings, ROW_SLICE items at a time; ``str``, ``int``, ``float``, ``bool`` and ``None`` are
  encoded by the same functions the standard library uses.
- The record path writes a list of plain dicts that share one key set in
  one step: each row is one join of the fixed fragments of the sorted,
  escaped keys with that row's column-wise encoded cells. A column of scalars is encoded
  one column at a time; a column whose cells are all plain dicts is
  itself written by the record path one margin deeper, so the battery
  materials, each with its ``composition`` dict, are a single step too.
  The type, length and key checks run over whole slices in C. A slice
  declines the record path, and is written item by item instead, when
  its rows, or the dicts in one of its columns, differ in key set, or
  hold an empty dict, a dict subclass, a non-``str`` key or a list.
  Each row's text depends on that row alone, so slices of one list may
  go either way and the text is the same.
- Anything else (non-``str`` keys, subclasses such as ``numpy.float64``
  or ``IntEnum``, other containers, a reference cycle) sends the whole
  document to the standard library call, which stays the oracle: its
  output and its errors are what the caller gets.

write_json streams: after each slice it writes the pending text to the
file once that holds CHUNK_CHARS characters (about 1 MB), so the writer
never holds more than one slice's cells and rows and about one chunk of
text. A document shorter than one chunk is encoded in memory and written
with one open and one write. No temporary file is made:

- if the fast path gives up, write_json removes the partial file and
  writes the standard library's text from the start;
- if the standard library raises too, or anything fails once the file
  is open, the partial file is removed and the error propagates. A
  document that fails before its first chunk leaves the path untouched.

A list of records need not exist as dicts to be written. Both functions
also take Records, which hold a list of records as column slices drawn
on demand; each slice goes through the record path's cell encoders and
row joins, so its text is the one the dicts would have. The 81k route
table entries are written this way (routing.qtable_to_dict gives its
entries as Records), so the largest artifact never exists as entry dicts,
row strings for all its rows, or whole text. When a column declines, the standard library call
takes the document, and its ``default`` hook expands each Records into
the entry dicts it stands for; the text is the same, and any other value
it cannot serialize raises the standard library's own TypeError.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Sequence

# write_json writes its text whenever about this many characters are
# pending, and a list is written this many items at a time, so neither
# the text nor the cells of a whole document or table are held at once.
CHUNK_CHARS = 1 << 20
ROW_SLICE = 4096

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


def _cells(column: Sequence, field: str) -> list[str] | None:
    """Text of each cell of one record column, written at the margin field.

    A column whose cells are all plain dicts is written by _rows; any other
    column must hold scalars only. None when the column holds anything
    else, or when _rows declines its dicts.
    """
    types = set(map(type, column))
    if len(types) == 1:
        (kind,) = types
        if kind is dict:
            return _rows(column, field)
        if kind is float:
            cells = list(map(float.__repr__, column))
            if not _FLOAT_SPECIALS.keys().isdisjoint(cells):
                cells = list(map(_encode_float, column))
            return cells
        encode = _SCALARS.get(kind)
        return None if encode is None else list(map(encode, column))
    if types <= _SCALARS.keys():
        return [_SCALARS[type(v)](v) for v in column]
    return None


def _record_text(keys: Sequence[str], columns: Iterable[Sequence], inner: str) -> list[str] | None:
    """Text of each record, at the margin inner, from one column of cells per key.

    keys are the records' keys in sorted order and columns yields their
    columns in that order. None when _cells declines a column.
    """
    field = inner + " "
    # a row joins the fixed fragment before each key's cell, the cells, and
    # the closing margin: zip lines them up as one tuple per row
    parts: list[Iterable[str]] = []
    sep = "{" + field
    cells: list[str] = []
    for k, column in zip(keys, columns):
        cells = _cells(column, field)
        if cells is None:
            return None
        parts += (repeat(sep + encode_basestring(k) + ": "), cells)
        sep = "," + field
    parts.append(repeat(inner + "}", len(cells)))
    return list(map("".join, zip(*parts)))


def _rows(items: list, inner: str) -> list[str] | None:
    """Text of each item of a list of plain dicts sharing one key set.

    Each row is written at the margin inner. None when the items are not
    all plain dicts with the first one's nonempty set of str keys, or when
    _record_text declines one of their columns.
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
    try:
        return _record_text(keys, (list(map(itemgetter(k), items)) for k in keys), inner)
    except KeyError:
        return None


@dataclass(frozen=True)
class Records:
    """A list of records that write_json writes from columns, never as dicts.

    rows holds one item per record and columns(part) turns a slice of
    rows into one column of cells per key, in the order of keys, which
    are the records' keys sorted. The text is that of the list of dicts
    pairing keys with each row of the columns.
    """

    keys: tuple[str, ...]
    rows: Sequence
    columns: Callable[[Sequence], Sequence[Sequence]]


def _write(obj: Any, out: _Sink, indent: str) -> None:
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
        keys = sorted(obj)
        for start in range(0, len(keys), ROW_SLICE):
            for k in keys[start : start + ROW_SLICE]:
                out.append(sep + encode_basestring(k) + ": ")
                _write(obj[k], out, inner)
                sep = "," + inner
            out.spill()
        out.append(indent + "}")
    elif kind is list or kind is tuple or kind is Records:
        items = obj.rows if kind is Records else obj
        if not items:
            out.append("[]")
            return
        sep = "[" + inner
        for start in range(0, len(items), ROW_SLICE):
            part = items[start : start + ROW_SLICE]
            if kind is Records:
                rows = _record_text(obj.keys, obj.columns(part), inner)
                if rows is None:
                    raise _Unsupported
            else:
                rows = _rows(part, inner) if type(part[0]) is dict else None
            if rows is not None:
                out.append(sep + ("," + inner).join(rows))
                del rows  # the joined text is all the sink keeps of this slice
                sep = "," + inner
            else:
                for item in part:
                    out.append(sep)
                    _write(item, out, inner)
                    sep = "," + inner
            out.spill()
        out.append(indent + "]")
    else:
        raise _Unsupported


def _entries(obj: Any) -> list[dict]:
    """The list of dicts a Records stands for; the standard library's error otherwise."""
    if type(obj) is not Records:
        return json.JSONEncoder().default(obj)
    rows = obj.rows
    return [
        dict(zip(obj.keys, row))
        for start in range(0, len(rows), ROW_SLICE)
        for row in zip(*obj.columns(rows[start : start + ROW_SLICE]))
    ]


def _stdlib_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=1, ensure_ascii=False, default=_entries) + "\n"


class _Sink(list):
    """The text of one document as a list of pieces.

    Without a path the pieces are only kept. With one, spill() writes
    them to path once they hold CHUNK_CHARS characters; the file is
    opened on the first such write, or by finish() if none comes.
    """

    __slots__ = ("path", "file", "counted", "size")

    def __init__(self, path: Path | str | None = None):
        super().__init__()
        self.path = path
        self.file: BinaryIO | None = None
        self.counted = 0  # pieces whose length is in size
        self.size = 0

    def spill(self) -> None:
        if self.path is None:
            return
        self.size += sum(map(len, self[self.counted :]))
        self.counted = len(self)
        if self.size >= CHUNK_CHARS:
            self._flush()

    def _flush(self) -> None:
        text = "".join(self)
        self.clear()
        self.counted = self.size = 0
        if self.file is None:
            self.file = open(self.path, "wb")
        self.file.write(text.encode("utf-8"))

    def finish(self) -> None:
        self._flush()
        self.file.close()

    def discard(self) -> None:
        """Close and remove the file, if this sink opened one."""
        if self.file is not None:
            self.file.close()
            os.remove(self.path)


def canonical_dumps(obj: Any) -> str:
    out = _Sink()
    try:
        _write(obj, out, "\n")
    except (_Unsupported, RecursionError):
        return _stdlib_dumps(obj)
    out.append("\n")
    return "".join(out)


def write_json(path: Path | str, obj: Any) -> None:
    """Write the bytes of canonical_dumps(obj) to path, CHUNK_CHARS at a time."""
    out = _Sink(path)
    try:
        try:
            _write(obj, out, "\n")
            out.append("\n")
        except (_Unsupported, RecursionError):
            out.discard()
            out = _Sink(path)
            out.append(_stdlib_dumps(obj))
        out.finish()
    except BaseException:
        out.discard()
        raise


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
