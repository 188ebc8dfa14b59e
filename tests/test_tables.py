"""Exact CSV/JSON round-tripping, the backbone of byte-identical outputs."""

import csv
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from collapse_lab.errors import ConfigError
from collapse_lab.tables import (
    _BLOCK_ROWS,
    _decode,
    _decode_column,
    _encode,
    atomic_write,
    columns_of,
    read_csv,
    rows_from_dicts,
    write_csv,
    write_json,
)

CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
        max_size=20,
    ).filter(lambda s: s not in ("", "true", "false") and not _parses_numeric(s)),
)


def _parses_numeric(s: str) -> bool:
    for cast in (int, float):
        try:
            cast(s)
            return True
        except ValueError:
            continue
    return False


class TestRoundTrip:
    def test_known_values(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [
            [1, -0.0, True, None, "plain"],
            [0.1, 1e-300, False, math.inf, "with,comma"],
            [-(2**40), 2.5, True, 3.0, 'quoted "text"'],
        ]
        write_csv(path, ["a", "b", "c", "d", "e"], rows)
        header, got = read_csv(path)
        assert header == ["a", "b", "c", "d", "e"]
        assert got == rows
        # -0.0 must survive with its sign
        assert math.copysign(1.0, got[0][1]) == -1.0

    def test_float_repr_is_shortest_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [[0.1], [1 / 3], [math.pi]])
        _, rows = read_csv(path)
        assert rows == [[0.1], [1 / 3], [math.pi]]

    def test_nan_round_trips_as_float(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [[math.nan]])
        _, rows = read_csv(path)
        assert math.isnan(rows[0][0])

    @given(rows=st.lists(st.lists(CELLS, min_size=3, max_size=3), min_size=1, max_size=8))
    def test_any_table_round_trips(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, ["a", "b", "c"], rows)
        _, got = read_csv(path)
        assert got == rows

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigError):
            read_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        write_csv(path, ["a", "b"], [])
        header, rows = read_csv(path)
        assert header == ["a", "b"] and rows == []


def _decode_int_first(text: str):
    """The decoder as it was before it skipped int() on float text: int() tried on every cell."""
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
        return float(text)
    except ValueError:
        return text


class TestDecode:
    @given(text=st.one_of(st.text(), st.floats().map(repr), st.integers().map(repr)))
    @example(text="1_000")
    @example(text=" -7\n")
    @example(text="\u0661\u0662")  # Arabic-Indic digits, which int() reads
    @example(text="9" * 5000)  # longer than int()'s digit limit
    @example(text="-Infinity")
    @example(text="NaN")
    @example(text="1E5")
    def test_same_value_and_type_as_int_first(self, text):
        got, want = _decode(text), _decode_int_first(text)
        assert (type(got), repr(got)) == (type(want), repr(want))


def _write_csv_per_cell(path, header, rows):
    """The writer as it was before it encoded whole columns: csv.writer, _encode per cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_encode(v) for v in row])


# floats of every kind a table holds: signed zeros, subnormals, infinities, nan
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738858072014e-308, math.inf, -math.inf, math.nan, 1e16, 1e-5]),
)
# text with csv's quoting characters; "\r" is left out, as csv.writer does not quote it (see TestQuoting)
TEXT = st.text(alphabet=st.sampled_from('ab ,"\n\t-.e1'), max_size=8)
ANY_CELL = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT)


def _uniform_columns(width):
    """Rows whose columns are each one kind of cell, as the package's tables are, or mixed."""
    kinds = st.sampled_from([FLOATS, st.integers(), st.booleans(), TEXT, ANY_CELL])
    return st.lists(kinds, min_size=width, max_size=width).flatmap(
        lambda cells: st.lists(st.tuples(*cells), min_size=0, max_size=12)
    )


class TestColumnarWriter:
    @given(width=st.integers(1, 4), data=st.data())
    @example(width=1, data=None)
    def test_same_bytes_as_csv_writer(self, tmp_path_factory, width, data):
        rows = [("",), (None,), (1.5,), ("a",)] if data is None else data.draw(_uniform_columns(width))
        header = [f"c{i}" for i in range(width)]
        root = tmp_path_factory.mktemp("csv")
        write_csv(root / "new.csv", header, rows)
        _write_csv_per_cell(root / "old.csv", header, rows)
        assert (root / "new.csv").read_bytes() == (root / "old.csv").read_bytes()

    def test_blocks_with_different_column_kinds(self, tmp_path):
        # a column that is all bools in one block and holds a None in the next
        n = 2 * _BLOCK_ROWS + 3
        rows = [(i, i / 7, None if i == _BLOCK_ROWS + 5 else i % 3 == 0, f"r{i}") for i in range(n)]
        write_csv(tmp_path / "new.csv", list("abcd"), iter(rows))
        _write_csv_per_cell(tmp_path / "old.csv", list("abcd"), rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert read_csv(tmp_path / "new.csv") == (list("abcd"), [list(r) for r in rows])

    def test_header_quoting(self, tmp_path):
        header = ["plain", "with,comma", 'with "quote"', ""]
        write_csv(tmp_path / "new.csv", header, [[1, 2, 3, 4]])
        _write_csv_per_cell(tmp_path / "old.csv", header, [[1, 2, 3, 4]])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        write_csv(tmp_path / "one.csv", [""], [[None]])
        assert (tmp_path / "one.csv").read_text() == '""\n""\n'

    def test_rows_must_match_the_header(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3]])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2, 3]])
        assert os.listdir(tmp_path) == []


WIDTH_AND_ROWS = st.integers(1, 5).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.lists(ANY_CELL, min_size=w, max_size=w), max_size=10))
)


class TestColumnsOf:
    @given(WIDTH_AND_ROWS)
    def test_same_as_zip(self, case):
        width, rows = case
        got = columns_of(rows, width)
        assert len(got) == width
        if rows:
            assert _same_cells([c for col in got for c in col], [c for col in zip(*rows) for c in col])
        else:
            assert got == [()] * width

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            columns_of([(1, 2), (3,), (4, 5, 6)], 2)  # as many cells as two full rows
        with pytest.raises(ValueError):
            columns_of([(1, 2, 3)], 2)


class TestQuoting:
    def test_carriage_return_is_quoted_and_round_trips(self, tmp_path):
        # csv.writer leaves a bare "\r" unquoted when lines end in "\n", and csv.reader ends the row there
        rows = [["a\rb", 1.0], ["\r", 2.0]]
        write_csv(tmp_path / "t.csv", ["s", "x"], rows)
        assert (tmp_path / "t.csv").read_bytes() == b's,x\n"a\rb",1.0\n"\r",2.0\n'
        assert read_csv(tmp_path / "t.csv") == (["s", "x"], rows)


class TestNumpyScalars:
    def test_written_as_the_python_value(self, tmp_path):
        scalars = [np.float64(0.5), np.bool_(True), np.int64(-3), np.float32(0.1), np.bool_(False)]
        values = [s.item() for s in scalars]
        write_csv(tmp_path / "np.csv", list("abcde"), [scalars])
        write_csv(tmp_path / "py.csv", list("abcde"), [values])
        assert (tmp_path / "np.csv").read_bytes() == (tmp_path / "py.csv").read_bytes() == (
            b"a,b,c,d,e\n0.5,true,-3,0.10000000149011612,false\n"
        )
        _, (row,) = read_csv(tmp_path / "np.csv")
        assert [(type(v), v) for v in row] == [(type(v), v) for v in values]


class TestStrCells:
    def test_text_that_reads_as_a_value_comes_back_as_that_value(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["s"], [[""], ["true"], ["nan"], ["12"], ["plain"]])
        _, rows = read_csv(tmp_path / "t.csv")
        assert rows[0] == [None] and rows[1] == [True] and rows[3] == [12] and rows[4] == ["plain"]
        assert type(rows[2][0]) is float and math.isnan(rows[2][0])


# text a table cell can hold, and text only a hand-edited file would
DECODE_TEXT = st.one_of(
    st.text(),
    st.floats().map(repr),
    st.integers().map(repr),
    st.sampled_from(["", "true", "false", "1_000", " -7\n", "\u0661\u0662", "-Infinity", "NaN", "1E5", "inf", "12"]),
)


def _same_cells(got, want):
    return [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want]


class TestColumnarReader:
    @given(
        column=st.one_of(
            st.lists(st.floats().map(repr)),
            st.lists(st.integers().map(repr)),
            st.lists(st.sampled_from(["", "true", "false"])),
            st.lists(DECODE_TEXT),
        )
    )
    @example(column=["1.5", "2"])  # float() takes both, but _decode reads "2" as an int
    @example(column=["1.5", "1E5", "NaN", "-Infinity"])
    @example(column=["1_000", "\u0661\u0662", " -7\n"])
    @example(column=["9" * 5000, "1.0"])  # longer than int()'s digit limit
    @example(column=["true", "false", "", "x"])
    def test_column_decodes_as_per_cell(self, column):
        assert _same_cells(_decode_column(column), [_decode(text) for text in column])

    @given(rows=st.lists(st.lists(DECODE_TEXT, min_size=3, max_size=3), max_size=10))
    def test_read_csv_decodes_as_per_cell(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([["a", "b", "c"], *rows])
        with open(path, newline="") as fh:
            want = [[_decode(cell) for cell in row] for row in list(csv.reader(fh))[1:]]
        if any(len(row) != 3 for row in want):
            # a bare "\r" that csv.writer left unquoted splits its row
            with pytest.raises(ConfigError):
                read_csv(path)
            return
        header, got = read_csv(path)
        assert header == ["a", "b", "c"]
        assert len(got) == len(want) and all(_same_cells(g, w) for g, w in zip(got, want))

    def test_ragged_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ConfigError, match="t.csv"):
            read_csv(path)


class TestRowsFromDicts:
    def test_projects_in_header_order(self):
        rows = rows_from_dicts([{"b": 2, "a": 1}, {"a": 3, "b": 4, "c": 9}], ["a", "b"])
        assert rows == [[1, 2], [3, 4]]

    def test_missing_column(self):
        with pytest.raises(ConfigError) as err:
            rows_from_dicts([{"a": 1}], ["a", "b"])
        assert "b" in str(err.value)


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
        rows = [[0.1, True, None], [2, "s", -0.0]]
        write_csv(p1, ["x", "y", "z"], rows)
        write_csv(p2, ["x", "y", "z"], rows)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()


class _FailingRow:
    """A row that yields one cell, then raises: a crash in mid-row."""

    def __iter__(self):
        yield 1.5
        raise RuntimeError("crash while writing")


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2.5], [3, 4.5]])
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            write_csv(path, ["a", "b"], [[5, 6.5]] * 10_000 + [_FailingRow()])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_failed_first_write_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            write_csv(tmp_path / "t.csv", ["a"], [[1], _FailingRow()])
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
