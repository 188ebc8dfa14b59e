"""CSV and JSON emission with exact round-tripping.

Floats are written with repr (shortest string that parses back to the
identical double), booleans as lowercase true/false, missing values as the
empty string, and a NumPy scalar as the Python value it holds. ``read_csv``
inverts the encoding, so write -> read is the identity on None, bool, int
and float cells, which is what the byte-identical-output contract and the
re-plotting command rely on. A str cell comes back as written unless its
text reads as one of those: '', 'true', 'nan' and '12' come back as None,
True, a float and an int.

Both directions work a column at a time. ``write_csv`` turns the rows into
columns in blocks of ``_BLOCK_ROWS``, so its memory does not grow with the
table; a column whose cells are all floats, all ints or all bools is
encoded by one map, any other cell by ``_encode`` and csv's minimal
quoting. ``read_csv`` splits the file with ``csv.reader`` and decodes a
column by one map of ``int`` or ``float`` when that gives every cell the
value and type ``_decode`` gives it, else cell by cell with ``_decode``.

Every file the package writes (these tables, checkpoints, SVG plots) goes
through ``atomic_write``: a run that dies mid-write leaves the previous
file (or none) under the target name, never a truncated one.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import os
import re

import numpy as np

from .errors import ConfigError

__all__ = ["atomic_write", "write_csv", "read_csv", "write_json", "rows_from_dicts", "columns_of"]

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


def _decode(text: str):
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    if "." not in text and "e" not in text and "n" not in text:  # else int() would raise
        try:
            return int(text)
        except ValueError:
            pass
    try:
        return float(text)  # covers 'inf', 'nan', exponents
    except ValueError:
        return text


# the encoder of a column whose every cell is of exactly this type (a bool is no int here)
_COLUMN_ENCODERS = {float: float.__repr__, int: int.__repr__, bool: ("false", "true").__getitem__}

# a cell csv would quote; csv.writer leaves a bare "\r" unquoted when the line
# ends in "\n", and its reader then ends the row there, so "\r" is quoted too
_NEEDS_QUOTES = re.compile('[,"\r\n]')

# the cells _decode reads as words
_WORDS = {"": None, "true": True, "false": False}

# a character without which _decode tries int() on a cell
_FLOAT_MARK = re.compile("[.en]")


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


def columns_of(rows, width: int) -> list[tuple]:
    """The ``width`` columns of ``rows``, a sequence of rows of ``width`` cells each.

    The rows are flattened into one tuple and each column is a slice of it,
    so no object is made per row: ``zip(*rows)`` would make an iterator per
    row, and enough of those at once set off the garbage collector.
    """
    flat = tuple(itertools.chain.from_iterable(rows))
    if set(map(len, rows)) - {width}:
        raise ValueError(f"every row needs {width} cells")
    return [flat[i::width] for i in range(width)]


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` (an iterable of sequences as long as the header) as CSV text."""
    rows = iter(rows)
    with atomic_write(path, newline="") as fh:
        fh.write(_lines([(name,) for name in header]))
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            fh.write(_lines(columns_of(block, len(header))))


def _decode_column(column) -> list:
    """Each cell decoded to what ``_decode`` gives for it, by one map where that is possible."""
    try:
        return list(map(int, column))  # int() reads no text with a '.', 'e' or 'n' in it
    except ValueError:
        pass
    try:
        values = list(map(float, column))
    except ValueError:
        pass
    else:
        # _decode reads a cell without '.', 'e' or 'n' as an int if int() takes it; a
        # text float() takes has at most one '.', so a '.' per cell rules that out at once
        if "".join(column).count(".") == len(column) or all(map(_FLOAT_MARK.search, column)):
            return values
    if _WORDS.keys() >= set(column):
        return list(map(_WORDS.__getitem__, column))
    return list(map(_decode, column))


def read_csv(path):
    """Returns (header, rows) with cell values decoded back to Python types."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path} is empty, expected a header row")
        try:
            columns = columns_of(list(reader), len(header))
        except ValueError:
            raise ConfigError(f"{path}: a row does not have the header's {len(header)} cells")
    return header, list(map(list, zip(*map(_decode_column, columns))))


def rows_from_dicts(dicts, header):
    missing = [k for d in dicts for k in header if k not in d]
    if missing:
        raise ConfigError(f"rows missing columns: {sorted(set(missing))}")
    return [[d[k] for k in header] for d in dicts]


def write_json(path, payload) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
