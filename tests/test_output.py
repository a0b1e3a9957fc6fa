from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basequest.output import FORMATS, write_records
from oracles import render_records


def written(kinds, rows, fmt):
    """What write_records streams to stdout for these rows."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        write_records(kinds, iter(rows), fmt, None)
    return sink.getvalue()


class TestCsv:
    def test_header_is_first_seen_key_union(self):
        text = written({"a": ("x",), "b": ("y",)}, [("a", 1), ("b", 2.5)], "csv")
        assert text.splitlines() == ["record,x,y", "a,1,", "b,,2.5"]

    def test_quoting_of_awkward_strings(self):
        # a bare "\r" is quoted too, as RFC 4180 asks, or a reader splits
        # its record in two
        for note in ('has "quotes", commas\nand a newline', "a\rb.csv"):
            text = written({"row": ("note",)}, [("row", note)], "csv")
            parsed = list(csv.reader(io.StringIO(text, newline="")))
            assert parsed == [["record", "note"], ["row", note]]

    def test_floats_round_trip(self):
        value = 10.472135954999581
        text = written({"row": ("v",)}, [("row", value)], "csv")
        cell = text.splitlines()[1].split(",")[1]
        assert float(cell) == value
        assert cell == repr(value)

    def test_booleans_and_none(self):
        text = written({"row": ("ok", "bad", "gap")}, [("row", True, False, None)],
                       "csv")
        assert text.splitlines()[1] == "row,true,false,"

    def test_a_lone_empty_cell_is_quoted(self):
        # as csv writes it, so that the record is not read as a blank line
        text = written({"": ()}, [("",)], "csv")
        assert text == 'record\n""\n'
        assert list(csv.reader(io.StringIO(text))) == [["record"], [""]]

    def test_unix_line_endings(self):
        text = written({"row": ("a",)}, [("row", 1), ("row", 2)], "csv")
        assert "\r" not in text
        assert text.endswith("\n")


class TestJsonl:
    def test_one_object_per_line(self):
        text = written({"a": ("x",), "b": ("x",)}, [("a", 1), ("b", 2)], "jsonl")
        assert [json.loads(line) for line in text.splitlines()] == [
            {"record": "a", "x": 1}, {"record": "b", "x": 2}]

    def test_missing_keys_omitted(self):
        # a record holds its own kind's keys, not the other kinds'
        text = written({"a": ("x",), "b": ("y",)}, [("a", 1), ("b", 2)], "jsonl")
        lines = text.splitlines()
        assert json.loads(lines[0]) == {"record": "a", "x": 1}
        assert json.loads(lines[1]) == {"record": "b", "y": 2}

    def test_float_precision_survives(self):
        value = 0.9999999584105006
        line = written({"row": ("p",)}, [("row", value)], "jsonl")
        assert json.loads(line)["p"] == value

    def test_none_becomes_null(self):
        line = written({"row": ("gap",)}, [("row", None)], "jsonl")
        assert json.loads(line) == {"record": "row", "gap": None}

    def test_values_match_csv_exactly(self):
        kinds, rows = {"row": ("n", "p", "tag")}, [("row", 20, 0.392, "x")]
        csv_cells = written(kinds, rows, "csv").splitlines()[1].split(",")
        obj = json.loads(written(kinds, rows, "jsonl"))
        assert csv_cells == ["row", "20", repr(0.392), "x"]
        assert obj == {"record": "row", "n": 20, "p": 0.392, "tag": "x"}


class TestContract:
    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            written({"row": ("a",)}, [("row", 1)], "yaml")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_rows_of_the_wrong_length_raise(self, fmt):
        # a value too many or too few, in a chunk alone or among good rows
        kinds = {"row": ("a", "b")}
        for bad in (("row", 1, 2, 3), ("row", 1)):
            for rows in ([bad], [("row", 1, 2), bad], [bad, bad]):
                with pytest.raises(ValueError):
                    written(kinds, rows, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_rows_of_an_undeclared_kind_raise(self, fmt):
        with pytest.raises(ValueError, match="kind 'b'"):
            written({"a": ("x",)}, [("a", 1), ("b", 2)], fmt)

    def test_rejects_unserializable_value(self):
        with pytest.raises(TypeError):
            written({"row": ("a",)}, [("row", object())], "csv")

    def test_numpy_values_refused(self):
        # a value's type must be exactly int, float, str, bool or None: a
        # numpy scalar is refused, not coerced, in a row alone or in a chunk
        for value in (np.float64(0.5), np.int64(3), np.bool_(True)):
            for fmt in FORMATS:
                for count in (1, 3):
                    with pytest.raises(TypeError, match="unsupported record value"):
                        written({"row": ("a",)}, [("row", value)] * count, fmt)

    def test_write_records_streams_to_file(self, tmp_path):
        target = tmp_path / "out.csv"
        rows = iter([("row", 1, 0.5), ("row", 2, None)])
        assert write_records({"row": ("n", "p")}, rows, "csv", str(target)) is None
        assert target.read_text(encoding="utf-8") == "record,n,p\nrow,1,0.5\nrow,2,\n"
        assert next(rows, None) is None

    def test_write_records_streams_to_stdout(self, capsys):
        write_records({"a": ("x",)}, [("a", 1)], "jsonl", None)
        assert capsys.readouterr().out == '{"record": "a", "x": 1}\n'

    def test_unknown_format_opens_no_file(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(ValueError):
            write_records({"row": ("n",)}, [("row", 1)], "yaml", str(target))
        assert not target.exists()


# Cells of every type a record may hold, awkward strings, and the
# non-finite floats JSON spells differently.
CELLS = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(),
    st.text(alphabet=st.sampled_from('ab,"\n\r{}\x1fn\u00e9 '), max_size=6))
# Keys and kind tags that need quoting or escaping, and any others.
KEYS = st.sampled_from(["n", "a,b", 'q"', "{0}", "x\ny", "", "\x1f", "k\\u001f"]) | \
    st.text(max_size=4).filter(lambda key: key != "record")
TAGS = st.sampled_from(["row", "a,b", 'q"', "{x}", "", "r\nw", "n\x1f", "\\u001f"]) | \
    st.text(max_size=4)


@settings(max_examples=40, deadline=None)
@given(declared=st.dictionaries(TAGS, st.lists(KEYS, unique=True, max_size=4),
                                min_size=1),
       fmt=st.sampled_from(FORMATS), data=st.data())
def test_records_match_oracle(declared, fmt, data):
    # rows of kinds with differing keys, the header over their union
    tags = data.draw(st.lists(st.sampled_from(sorted(declared)), min_size=1,
                              max_size=8))
    rows = [(tag, *(data.draw(CELLS) for _ in declared[tag])) for tag in tags]
    kinds = {tag: tuple(declared[tag]) for tag in tags}
    records = [dict(zip(("record", *kinds[row[0]]), row)) for row in rows]
    assert written(kinds, rows, fmt) == render_records(records, fmt)


@settings(max_examples=25, deadline=None)
@given(tags=st.lists(TAGS, min_size=1, max_size=40),
       fmt=st.sampled_from(FORMATS), cells=st.data())
def test_streamed_rows_match_oracle(tags, fmt, cells):
    # runs of tagged rows, each chunk mixing plain and other cells
    kinds = {tag: ("x", "y") for tag in tags}
    rows = [(tag, cells.draw(CELLS), cells.draw(CELLS)) for tag in tags]
    records = [{"record": tag, "x": x, "y": y} for tag, x, y in rows]
    assert written(kinds, rows, fmt) == render_records(records, fmt)


def test_chunks_of_plain_rows_match_oracle(tmp_path):
    # runs longer than a chunk, with a non-finite float deep in one of them
    rows = [("step", k, k / 7.0) for k in range(3000)]
    rows[2500] = ("step", 2500, math.inf)
    rows += [("end", 1e300 * 1e10, -0.0, 2**70)]
    kinds = {"step": ("k", "p"), "end": ("p", "q", "k")}
    records = [dict(zip(("record", *kinds[row[0]]), row)) for row in rows]
    for fmt in FORMATS:
        target = tmp_path / f"rows.{fmt}"
        write_records(kinds, iter(rows), fmt, str(target))
        assert target.read_text(encoding="utf-8") == render_records(records, fmt)
