"""Exact CSV/JSON round-tripping, the backbone of byte-identical outputs."""

import json
import math
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collapse_lab.errors import ConfigError
from collapse_lab.tables import atomic_write, read_csv, rows_from_dicts, write_csv, write_json

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
