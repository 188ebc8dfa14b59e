"""CSV and JSON emission with exact round-tripping.

A table is one form everywhere: an ordered mapping {column name: column}
of equal-length columns, its keys the CSV header. Floats are written with
repr (shortest string that parses back to the identical double), booleans
as lowercase true/false, missing values as the empty string, and a NumPy
scalar as the Python value it holds. ``read_csv`` parses each column as
the type the caller declares for it: ``float``, ``int``, ``bool``,
``str``, or ``T | None`` for a column that may be empty, the only kind
that reads '' as None. So write -> read is the identity on a column of its
declared type, str cells included, which is what the byte-identical-output
contract and the re-plotting command rely on. A header other than the
declared one, a ragged row, or a cell that does not parse as its column's
type is a ``ConfigError``.

Both directions work a column at a time. ``write_csv`` encodes blocks of
``_BLOCK_ROWS`` rows, a slice of each column: a slice whose cells are all
floats, all ints or all bools by one map, any other cell by ``_encode``
and csv's minimal quoting. ``read_csv`` streams the rows of ``csv.reader``
into one flat list of cells, slices each column out of it, and parses
each column by one map.

Every file the package writes (these tables, checkpoints, SVG plots) goes
through ``atomic_write``: a run that dies mid-write leaves the previous
file (or none) under the target name, never a truncated one.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import re
import typing

import numpy as np

from .errors import ConfigError

__all__ = ["atomic_write", "write_csv", "read_csv", "write_json"]

_BLOCK_ROWS = 1024


@contextlib.contextmanager
def atomic_write(path, newline=None):
    """Open a text file that takes the place of ``path`` when the block ends.

    The data goes to a hidden ``.<name>.<pid>.tmp`` file in the target's
    directory, which ``os.replace`` renames over ``path`` only after the
    block completes and the file is closed. If the block raises, the
    temporary file is removed and ``path`` is left as it was. A missing
    directory is made first, so a run that writes nothing makes none. Plain
    ``open`` creates the file, so it gets the usual umask-derived mode.
    """
    directory, name = os.path.split(os.fspath(path))
    os.makedirs(directory or ".", exist_ok=True)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _encode(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# the encoder of a column whose every cell is of exactly this type (a bool is no int here)
_COLUMN_ENCODERS = {float: float.__repr__, int: int.__repr__, bool: ("false", "true").__getitem__}

# a cell csv would quote; csv.writer leaves a bare "\r" unquoted when the line
# ends in "\n", and its reader then ends the row there, so "\r" is quoted too
_NEEDS_QUOTES = re.compile('[,"\r\n]')

# the parser of a cell of each column type: int and float read back what they wrote
_DECODERS = {float: float, int: int, bool: {"true": True, "false": False}.__getitem__, str: str}


def _quote(text: str) -> str:
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _encode_column(column) -> list[str]:
    kinds = set(map(type, column))
    encode = _COLUMN_ENCODERS.get(kinds.pop()) if len(kinds) == 1 else None
    if encode is not None:
        return list(map(encode, column))
    return list(map(_quote, map(_encode, column)))


def _lines(columns) -> str:
    """The CSV text of the rows that ``columns`` (a sequence of equal-length columns) hold."""
    cells = [_encode_column(column) for column in columns]
    if len(cells) == 1:
        # csv writes a row whose only cell is empty as "", which no reader takes for a blank line
        cells[0] = ['""' if c == "" else c for c in cells[0]]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def write_csv(path, table) -> None:
    """Write ``table`` ({column name: column}, columns of equal length) as CSV text, its keys the header."""
    columns = list(table.values())
    height = len(columns[0]) if columns else 0
    if any(len(column) != height for column in columns):
        raise ValueError(f"the columns of {list(table)} differ in length")
    with atomic_write(path, newline="") as fh:
        fh.write(_lines([(name,) for name in table]))
        for start in range(0, height, _BLOCK_ROWS):
            fh.write(_lines([column[start : start + _BLOCK_ROWS] for column in columns]))


def _columns_of(rows, width: int) -> list[list]:
    """The ``width`` columns of ``rows``, an iterable of rows of ``width`` cells each.

    The cells go into one flat list as the rows stream, and each column is a
    slice of it. No row outlives its turn: holding every row of a long
    table at once, as ``list(rows)`` would, sets off the garbage collector.
    """
    cells = []
    for row in rows:
        if len(row) != width:
            raise ValueError(f"every row needs {width} cells")
        cells += row
    return [cells[i::width] for i in range(width)]


def _decode_column(path, name: str, column, kind) -> list:
    """The cells of column ``name`` parsed as ``kind``; a ``T | None`` column reads '' as None."""
    optional = type(None) in typing.get_args(kind)
    if optional:
        (kind,) = set(typing.get_args(kind)) - {type(None)}
    parse = _DECODERS[kind]
    try:
        if optional:
            return [None if text == "" else parse(text) for text in column]
        return list(map(parse, column))
    except (ValueError, KeyError):
        pass
    for row, text in enumerate(column, 1):
        try:
            if text or not optional:
                parse(text)
        except (ValueError, KeyError):
            raise ConfigError(f"{path}: row {row} of column {name!r} holds {text!r}, not a {kind.__name__}") from None


def read_csv(path, types) -> dict[str, list]:
    """The table at ``path`` as {column name: list}, each column parsed as ``types`` ({name: type}) declares."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path} is empty, expected a header row")
        if header != list(types):
            raise ConfigError(f"{path} has the columns {header}, expected {list(types)}")
        try:
            columns = _columns_of(reader, len(header))
        except ValueError:
            raise ConfigError(f"{path}: a row does not have the header's {len(header)} cells")
    return {name: _decode_column(path, name, column, types[name]) for name, column in zip(header, columns)}


def write_json(path, payload) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
