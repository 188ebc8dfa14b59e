"""Exact CSV/JSON round-tripping, the backbone of byte-identical outputs."""

import csv
import gc
import json
import math
import os
import typing

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from collapse_lab.errors import ConfigError
from collapse_lab.tables import (
    _BLOCK_ROWS,
    _columns_of,
    _decode_column,
    _encode,
    atomic_write,
    read_csv,
    write_csv,
    write_json,
)

# floats of every kind a table holds: signed zeros, subnormals, infinities, nan
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738858072014e-308, math.inf, -math.inf, math.nan, 1e16, 1e-5]),
)
# any text, csv's quoting characters and text that reads as another type included
STRINGS = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20),
    st.text(alphabet=st.sampled_from('ab ,"\r\n'), max_size=8),
    st.sampled_from(["", "12", "true", "false", "nan", "-0.0", "1e5"]),
)
# each declared column type, and the cells a column of it holds
COLUMN_CELLS = {
    float: FLOATS,
    int: st.integers(),
    bool: st.booleans(),
    str: STRINGS,
    float | None: st.one_of(st.none(), FLOATS),
    str | None: st.one_of(st.none(), STRINGS.filter(bool)),
}


def _table_of(cells, max_height):
    """A table {"c0": column, ...} whose i-th column holds cells drawn from ``cells[i]``, all of one height."""
    return st.integers(0, max_height).flatmap(
        lambda height: st.tuples(*[st.lists(c, min_size=height, max_size=height) for c in cells]).map(
            lambda columns: {f"c{i}": list(column) for i, column in enumerate(columns)}
        )
    )


# (types, table): declared column types and a table of columns that hold such cells
DECLARED_TABLES = st.lists(st.sampled_from(list(COLUMN_CELLS)), min_size=1, max_size=4).flatmap(
    lambda kinds: st.tuples(
        st.just({f"c{i}": k for i, k in enumerate(kinds)}), _table_of([COLUMN_CELLS[k] for k in kinds], 8)
    )
)


def _same_cells(got, want):
    return [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want]


def _same_table(got, want):
    return list(got) == list(want) and all(_same_cells(got[name], want[name]) for name in want)


class TestRoundTrip:
    def test_known_values(self, tmp_path):
        path = tmp_path / "t.csv"
        table = {
            "a": [1, 2, -(2**40)],
            "b": [-0.0, 1e-300, 2.5],
            "c": [True, False, True],
            "d": [None, math.inf, 3.0],
            "e": ["plain", "with,comma", 'quoted "text"'],
        }
        write_csv(path, table)
        got = read_csv(path, {"a": int, "b": float, "c": bool, "d": float | None, "e": str})
        assert got == table
        # -0.0 must survive with its sign
        assert math.copysign(1.0, got["b"][0]) == -1.0

    def test_float_repr_is_shortest_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, {"x": [0.1, 1 / 3, math.pi]})
        assert read_csv(path, {"x": float}) == {"x": [0.1, 1 / 3, math.pi]}

    def test_nan_round_trips_as_float(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, {"x": [math.nan]})
        (value,) = read_csv(path, {"x": float})["x"]
        assert math.isnan(value)

    @given(case=DECLARED_TABLES)
    def test_any_table_round_trips(self, tmp_path_factory, case):
        types, table = case
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, table)
        assert _same_table(read_csv(path, types), table)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigError):
            read_csv(path, {"a": int})

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        write_csv(path, {"a": [], "b": []})
        assert read_csv(path, {"a": int, "b": str}) == {"a": [], "b": []}


def _write_csv_per_cell(path, table):
    """The writer as it was before it encoded whole columns: csv.writer, _encode per cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(table))
        for row in zip(*table.values()):
            writer.writerow([_encode(v) for v in row])


# text with csv's quoting characters; "\r" is left out, as csv.writer does not quote it (see TestQuoting)
TEXT = st.text(alphabet=st.sampled_from('ab ,"\n\t-.e1'), max_size=8)
ANY_CELL = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT)


def _uniform_table(width):
    """A table whose columns are each one kind of cell, as the package's tables are, or mixed."""
    kinds = st.sampled_from([FLOATS, st.integers(), st.booleans(), TEXT, ANY_CELL])
    return st.lists(kinds, min_size=width, max_size=width).flatmap(lambda cells: _table_of(cells, 12))


class TestColumnarWriter:
    @given(width=st.integers(1, 4), data=st.data())
    @example(width=1, data=None)
    def test_same_bytes_as_csv_writer(self, tmp_path_factory, width, data):
        table = {"c0": ["", None, 1.5, "a"]} if data is None else data.draw(_uniform_table(width))
        root = tmp_path_factory.mktemp("csv")
        write_csv(root / "new.csv", table)
        _write_csv_per_cell(root / "old.csv", table)
        assert (root / "new.csv").read_bytes() == (root / "old.csv").read_bytes()

    def test_blocks_with_different_column_kinds(self, tmp_path):
        # a column that is all bools in one block and holds a None in the next
        n = 2 * _BLOCK_ROWS + 3
        table = {
            "a": list(range(n)),
            "b": [i / 7 for i in range(n)],
            "c": [None if i == _BLOCK_ROWS + 5 else i % 3 == 0 for i in range(n)],
            "d": [f"r{i}" for i in range(n)],
        }
        write_csv(tmp_path / "new.csv", table)
        _write_csv_per_cell(tmp_path / "old.csv", table)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert read_csv(tmp_path / "new.csv", {"a": int, "b": float, "c": bool | None, "d": str}) == table

    def test_header_quoting(self, tmp_path):
        table = {"plain": [1], "with,comma": [2], 'with "quote"': [3], "": [4]}
        write_csv(tmp_path / "new.csv", table)
        _write_csv_per_cell(tmp_path / "old.csv", table)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        write_csv(tmp_path / "one.csv", {"": [None]})
        assert (tmp_path / "one.csv").read_text() == '""\n""\n'

    def test_rows_must_match_the_header(self, tmp_path):
        # every row has a cell per header name: the columns are equally long
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", {"a": [1, 3], "b": [2]})
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", {"a": [1], "b": [2, 3]})
        assert os.listdir(tmp_path) == []


WIDTH_AND_ROWS = st.integers(1, 5).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.lists(ANY_CELL, min_size=w, max_size=w), max_size=10))
)


class TestColumnsOf:
    """The transposition ``read_csv`` makes of the rows ``csv.reader`` gives."""

    @given(WIDTH_AND_ROWS)
    def test_same_as_zip(self, case):
        width, rows = case
        got = _columns_of(rows, width)
        assert len(got) == width
        if rows:
            assert _same_cells([c for col in got for c in col], [c for col in zip(*rows) for c in col])
        else:
            assert got == [[]] * width

    def test_long_table_reads_without_a_collection(self, tmp_path):
        """read_csv holds one row at a time; 20000 rows held at once set off the garbage collector."""
        write_csv(tmp_path / "t.csv", {"x": [0.5] * 20_000, "k": [1.5] * 20_000})
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            read_csv(tmp_path / "t.csv", {"x": float, "k": float})
        finally:
            gc.callbacks.remove(count)
        assert started == []

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            _columns_of([(1, 2), (3,), (4, 5, 6)], 2)  # as many cells as two full rows
        with pytest.raises(ValueError):
            _columns_of([(1, 2, 3)], 2)


class TestQuoting:
    def test_carriage_return_is_quoted_and_round_trips(self, tmp_path):
        # csv.writer leaves a bare "\r" unquoted when lines end in "\n", and csv.reader ends the row there
        table = {"s": ["a\rb", "\r"], "x": [1.0, 2.0]}
        write_csv(tmp_path / "t.csv", table)
        assert (tmp_path / "t.csv").read_bytes() == b's,x\n"a\rb",1.0\n"\r",2.0\n'
        assert read_csv(tmp_path / "t.csv", {"s": str, "x": float}) == table


class TestNumpyScalars:
    def test_written_as_the_python_value(self, tmp_path):
        scalars = [np.float64(0.5), np.bool_(True), np.int64(-3), np.float32(0.1), np.bool_(False)]
        values = [s.item() for s in scalars]
        write_csv(tmp_path / "np.csv", {name: [s] for name, s in zip("abcde", scalars)})
        write_csv(tmp_path / "py.csv", {name: [v] for name, v in zip("abcde", values)})
        assert (tmp_path / "np.csv").read_bytes() == (tmp_path / "py.csv").read_bytes() == (
            b"a,b,c,d,e\n0.5,true,-3,0.10000000149011612,false\n"
        )
        got = read_csv(tmp_path / "np.csv", dict(zip("abcde", map(type, values))))
        assert [(type(v), v) for (v,) in got.values()] == [(type(v), v) for v in values]


class TestStrCells:
    def test_text_that_reads_as_a_value_comes_back_as_text(self, tmp_path):
        cells = ["", "true", "nan", "12", "plain"]
        write_csv(tmp_path / "t.csv", {"s": cells, "o": [None, *cells[1:]]})
        got = read_csv(tmp_path / "t.csv", {"s": str, "o": str | None})
        assert _same_cells(got["s"], cells)
        assert _same_cells(got["o"], [None, *cells[1:]])  # only a T | None column reads '' as None


# text a table cell can hold, and text only a hand-edited file would
DECODE_TEXT = st.one_of(
    st.text(),
    st.floats().map(repr),
    st.integers().map(repr),
    st.sampled_from(["", "true", "false", "1_000", " -7\n", "\u0661\u0662", "-Infinity", "NaN", "1E5", "inf", "12"]),
)
DECLARED = st.sampled_from([float, int, bool, str, float | None, int | None, bool | None])

_REJECTED = object()


def _read_cell(text: str, kind):
    """``text`` read as a cell of a ``kind`` column on its own, or _REJECTED: the oracle of the column reader."""
    if type(None) in typing.get_args(kind):
        if text == "":
            return None
        (kind,) = set(typing.get_args(kind)) - {type(None)}
    if kind is bool:
        return {"true": True, "false": False}.get(text, _REJECTED)
    try:
        return kind(text)
    except ValueError:
        return _REJECTED


class TestColumnarReader:
    @given(
        kind=DECLARED,
        column=st.one_of(
            st.lists(st.floats().map(repr)),
            st.lists(st.integers().map(repr)),
            st.lists(st.sampled_from(["", "true", "false"])),
            st.lists(DECODE_TEXT),
        ),
    )
    @example(kind=float, column=["1.5", "2"])
    @example(kind=float, column=["1.5", "1E5", "NaN", "-Infinity"])
    @example(kind=int, column=["1_000", "\u0661\u0662", " -7\n"])
    @example(kind=int, column=["9" * 5000, "1"])  # longer than int()'s digit limit
    @example(kind=bool | None, column=["true", "false", ""])
    @example(kind=bool, column=["true", "True"])
    @example(kind=float, column=["1.0", ""])  # an empty cell in a column that may not be empty
    def test_column_decodes_as_per_cell(self, kind, column):
        want = [_read_cell(text, kind) for text in column]
        if any(w is _REJECTED for w in want):
            with pytest.raises(ConfigError, match="column 'x'"):
                _decode_column("t.csv", "x", column, kind)
        else:
            assert _same_cells(_decode_column("t.csv", "x", column, kind), want)

    @given(
        kinds=st.lists(DECLARED, min_size=3, max_size=3),
        rows=st.lists(st.lists(DECODE_TEXT, min_size=3, max_size=3), max_size=10),
    )
    def test_read_csv_decodes_as_per_cell(self, tmp_path_factory, kinds, rows):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([["a", "b", "c"], *rows])
        with open(path, newline="") as fh:
            cells = list(csv.reader(fh))[1:]
        types = dict(zip("abc", kinds))
        if any(len(row) != 3 for row in cells) or any(
            _read_cell(text, kind) is _REJECTED for row in cells for text, kind in zip(row, kinds)
        ):
            # a bare "\r" that csv.writer left unquoted splits its row, or a cell is not of its type
            with pytest.raises(ConfigError, match="t.csv"):
                read_csv(path, types)
            return
        got = read_csv(path, types)
        assert list(got) == ["a", "b", "c"]
        for i, name in enumerate("abc"):
            assert _same_cells(got[name], [_read_cell(row[i], kinds[i]) for row in cells])

    def test_ragged_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ConfigError, match="t.csv"):
            read_csv(path, {"a": int, "b": int})

    def test_header_must_match_the_declared_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        for types in ({"a": int}, {"b": int, "a": int}, {"a": int, "b": int, "c": int}):
            with pytest.raises(ConfigError, match="t.csv"):
                read_csv(path, types)

    @pytest.mark.parametrize(
        "good, bad, kind",
        [("1.0", "abc", float), ("1.0", "", float), ("1", "2.5", int), ("true", "True", bool), ("false", "", bool)],
    )
    def test_cell_not_of_its_type_names_file_row_and_column(self, tmp_path, good, bad, kind):
        path = tmp_path / "t.csv"
        path.write_text(f"x,k\n2.0,{good}\n1.0,{bad}\n")
        with pytest.raises(ConfigError, match=r"t\.csv: row 2 of column 'k'"):
            read_csv(path, {"x": float, "k": kind})


class TestWriteJson:
    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        payload = {"z": 1, "a": [1.5, None, True], "m": {"k": "v"}}
        write_json(p1, payload)
        write_json(p2, {"m": {"k": "v"}, "a": [1.5, None, True], "z": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_trailing_newline(self, tmp_path):
        path = tmp_path / "a.json"
        write_json(path, {"x": 1})
        assert path.read_bytes().endswith(b"\n")

    def test_csv_bytes_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        table = {"x": [0.1, 2], "y": [True, "s"], "z": [None, -0.0]}
        write_csv(p1, table)
        write_csv(p2, table)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()


class _FailingCell:
    """A cell whose text cannot be made: a crash in mid-write."""

    def __str__(self):
        raise RuntimeError("crash while writing")


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, {"a": [1, 3], "b": [2.5, 4.5]})
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            # the cell that fails is in a later block than the first rows written
            write_csv(path, {"a": [5] * 10_000 + [_FailingCell()], "b": [6.5] * 10_001})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_failed_first_write_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            write_csv(tmp_path / "t.csv", {"a": [1, _FailingCell()]})
        assert os.listdir(tmp_path) == []

    def test_mode_matches_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        with atomic_write(tmp_path / "atomic.txt") as fh:
            fh.write("x")
        assert os.stat(tmp_path / "atomic.txt").st_mode == os.stat(plain).st_mode

    def test_first_write_makes_the_directory(self, tmp_path):
        write_json(tmp_path / "new" / "deeper" / "t.json", {"a": 1})
        assert json.loads((tmp_path / "new" / "deeper" / "t.json").read_text()) == {"a": 1}
