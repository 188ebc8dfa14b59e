"""CSV and JSON emission with exact round-tripping.

Floats are written with repr (shortest string that parses back to the
identical double), booleans as lowercase true/false, missing values as the
empty string. ``read_csv`` inverts the encoding, so write -> read is the
identity on values, which is what the byte-identical-output contract and
the re-plotting command rely on.

Every file the package writes (these tables, checkpoints, SVG plots) goes
through ``atomic_write``: a run that dies mid-write leaves the previous
file (or none) under the target name, never a truncated one.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os

from .errors import ConfigError

__all__ = ["atomic_write", "write_csv", "read_csv", "write_json", "rows_from_dicts"]


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
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)  # covers 'inf', 'nan', exponents
    except ValueError:
        return text


def write_csv(path, header, rows) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_encode(v) for v in row])


def read_csv(path):
    """Returns (header, rows) with cell values decoded back to Python types."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path} is empty, expected a header row")
        rows = [[_decode(cell) for cell in row] for row in reader]
    return header, rows


def rows_from_dicts(dicts, header):
    missing = [k for d in dicts for k in header if k not in d]
    if missing:
        raise ConfigError(f"rows missing columns: {sorted(set(missing))}")
    return [[d[k] for k in header] for d in dicts]


def write_json(path, payload) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
