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

from basequest.output import FORMATS, format_records, write_records
from oracles import render_records


class TestCsv:
    def test_header_is_first_seen_key_union(self):
        records = [{"record": "a", "x": 1}, {"record": "b", "y": 2.5}]
        lines = format_records(records, "csv").splitlines()
        assert lines[0] == "record,x,y"
        assert lines[1] == "a,1,"
        assert lines[2] == "b,,2.5"

    def test_quoting_of_awkward_strings(self):
        records = [{"note": 'has "quotes", commas\nand a newline'}]
        text = format_records(records, "csv")
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[1] == ['has "quotes", commas\nand a newline']

    def test_floats_round_trip(self):
        value = 10.472135954999581
        text = format_records([{"v": value}], "csv")
        cell = text.splitlines()[1]
        assert float(cell) == value
        assert cell == repr(value)

    def test_booleans_and_none(self):
        text = format_records([{"ok": True, "bad": False, "gap": None}], "csv")
        assert text.splitlines()[1] == "true,false,"

    def test_numpy_values_coerced(self):
        records = [{"i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True)}]
        assert format_records(records, "csv").splitlines()[1] == "3,0.5,true"

    def test_unix_line_endings(self):
        text = format_records([{"a": 1}, {"a": 2}], "csv")
        assert "\r" not in text
        assert text.endswith("\n")


class TestJsonl:
    def test_one_object_per_line(self):
        records = [{"record": "a", "x": 1}, {"record": "b", "x": 2}]
        lines = format_records(records, "jsonl").splitlines()
        assert [json.loads(line) for line in lines] == records

    def test_missing_keys_omitted(self):
        records = [{"a": 1}, {"b": 2}]
        lines = format_records(records, "jsonl").splitlines()
        assert json.loads(lines[0]) == {"a": 1}
        assert json.loads(lines[1]) == {"b": 2}

    def test_float_precision_survives(self):
        value = 0.9999999584105006
        line = format_records([{"p": value}], "jsonl").splitlines()[0]
        assert json.loads(line)["p"] == value

    def test_none_becomes_null(self):
        line = format_records([{"gap": None}], "jsonl").splitlines()[0]
        assert json.loads(line) == {"gap": None}

    def test_values_match_csv_exactly(self):
        records = [{"n": 20, "p": 0.392, "tag": "x"}]
        csv_cells = format_records(records, "csv").splitlines()[1].split(",")
        obj = json.loads(format_records(records, "jsonl").splitlines()[0])
        assert csv_cells == ["20", repr(0.392), "x"]
        assert obj == {"n": 20, "p": 0.392, "tag": "x"}


class TestContract:
    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            format_records([{"a": 1}], "yaml")

    def test_rejects_unserializable_value(self):
        with pytest.raises(TypeError):
            format_records([{"a": object()}], "csv")

    def test_write_records_streams_to_file(self, tmp_path):
        target = tmp_path / "out.csv"
        rows = iter([("row", 1, 0.5), ("row", 2, None)])
        assert write_records({"row": ("n", "p")}, rows, "csv", str(target)) is None
        assert target.read_text(encoding="utf-8") == "record,n,p\nrow,1,0.5\nrow,2,\n"
        assert next(rows, None) is None

    def test_write_records_streams_to_stdout(self, capsys):
        write_records({("a",): ("a",)}, [(("a",), 1)], "jsonl", None)
        assert capsys.readouterr().out == '{"a": 1}\n'

    def test_unknown_format_opens_no_file(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(ValueError):
            write_records({"row": ("n",)}, [("row", 1)], "yaml", str(target))
        assert not target.exists()


# Cells of every type a record may hold, awkward strings, and the
# non-finite floats JSON spells differently.
CELLS = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(),
    st.text(alphabet=st.sampled_from('ab,"\n\r{}\x1fn\u00e9 '), max_size=6),
    st.integers(-5, 5).map(np.int64), st.floats(width=32).map(np.float32),
    st.floats().map(np.float64), st.booleans().map(np.bool_))
KEYS = st.sampled_from(["record", "n", "a,b", 'q"', "{0}", "x\ny", "\x1f", "k\\u001f"])
RECORDS = st.lists(st.dictionaries(KEYS, CELLS, max_size=4), min_size=1, max_size=8)


@settings(max_examples=40, deadline=None)
@given(records=RECORDS, fmt=st.sampled_from(FORMATS))
def test_format_records_matches_oracle(records, fmt):
    assert format_records(records, fmt) == render_records(records, fmt)


@settings(max_examples=25, deadline=None)
@given(tags=st.lists(st.sampled_from(["row", "a,b", 'q"', "{x}", "", "n\x1f",
                                      "\\u001f"]),
                     min_size=1, max_size=40),
       fmt=st.sampled_from(FORMATS), cells=st.data())
def test_streamed_rows_match_oracle(tags, fmt, cells):
    # runs of tagged rows, each chunk mixing plain and other cells
    kinds = {tag: ("x", "y") for tag in tags}
    rows = [(tag, cells.draw(CELLS), cells.draw(CELLS)) for tag in tags]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        write_records(kinds, iter(rows), fmt, None)
    records = [{"record": tag, "x": x, "y": y} for tag, x, y in rows]
    assert sink.getvalue() == render_records(records, fmt)


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
