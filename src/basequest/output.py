"""Record serialization for the command-line reports.

Records are flat mappings with a leading "record" kind tag. Two encodings
carry identical values: CSV (single header row over the union of keys,
RFC 4180 quoting, blank cell for a key a record lacks) and JSON lines (one
object per record, missing keys omitted). Floats are rendered as shortest
round-trip decimals, so no precision is lost in either encoding and the
same invocation always produces the same bytes.

Records stream as rows, tuples (kind, *values), whose kinds' keys are
declared before the first row, so the CSV header is fixed up front. Rows
are encoded a chunk of one kind at a time: values that are all plain ints
and floats (finite, in JSON) fill the kind's line layout as their reprs;
any other row is encoded record by record, to the same bytes.
"""

from __future__ import annotations

import io
import sys
from itertools import chain, groupby, islice, repeat
from operator import itemgetter

# json and csv are imported where they are used, so that a call loads only
# the encoder it writes with

FORMATS = ("csv", "jsonl")

# Value types a record may hold, exactly: a numpy scalar is refused.
_PLAIN = frozenset((int, float, str, bool, type(None)))
# Value types whose repr is their text in both encodings.
_TEMPLATED = frozenset((int, float))
# Most rows encoded together.
_CHUNK = 256


def _plain(value):
    """value, if its type is one a record may hold; else TypeError."""
    if type(value) not in _PLAIN:
        raise TypeError(f"unsupported record value {value!r}")
    return value


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _encoder(kinds: dict, fmt: str):
    """(header, encode): the CSV header line ("" in JSON lines), and
    encode(kind, rows), the text of a list of rows of one kind.

    kinds maps each kind, a str that is also the record's leading "record"
    tag, to the keys of its values.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    plans = {kind: ("record", *keys) for kind, keys in kinds.items()}
    columns = list(dict.fromkeys(key for keys in plans.values() for key in keys))

    if fmt == "jsonl":
        import json

        def general(record):
            return json.dumps(record, separators=(", ", ": ")) + "\n"
        header = ""
    else:
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)

        def line(cells):
            writer.writerow(cells)
            text = buffer.getvalue()
            buffer.seek(0)
            buffer.truncate()
            return text

        def general(record):
            return line([_csv_cell(record[key]) if key in record else ""
                         for key in columns])
        header = line(columns)

    for kind, keys in plans.items():
        # a layout: the fixed texts of the kind's lines and the row positions
        # of the values between them, read off the line of a record that
        # holds "\x1f<position>\x1f" for each value (JSON writes \u001f); a
        # key or tag holding \x1f or a backslash could fake a mark
        layout = letters = None
        if all(type(text) is str and "\x1f" not in text and "\\" not in text
               for text in (kind, *keys)):
            parts = general({
                key: f"\x1f{position}\x1f" if position else kind
                for position, key in enumerate(keys)
            }).replace('"\\u001f', "\x1f").replace('\\u001f"', "\x1f").split("\x1f")
            layout = parts[0::2], [int(part) for part in parts[1::2]]
            # a non-finite float writes an "n" (inf, nan) where JSON needs
            # Infinity or NaN; a finite float or an int never does
            if fmt == "jsonl":
                letters = "".join(layout[0]).count("n")
        plans[kind] = keys, layout, letters

    def encode(kind, rows):
        keys, layout, letters = plans[kind]
        if layout is not None:
            texts, order = layout
            cells = list(zip(*rows))
            if len(cells) == len(keys) and all(
                    _TEMPLATED.issuperset(map(type, cells[position]))
                    for position in order):
                count = len(rows)
                parts = [repeat(texts[0], count)]
                for position, text in zip(order, texts[1:]):
                    parts += [map(repr, cells[position]), repeat(text, count)]
                out = "".join(chain.from_iterable(zip(*parts)))
                if letters is None or out.count("n") == letters * count:
                    return out
            if len(rows) > 1:
                return "".join(encode(kind, [row]) for row in rows)
        return "".join(general({key: _plain(value) for key, value in zip(keys, row)})
                       for row in rows)

    return header, encode


def write_records(kinds: dict, rows, fmt: str, path: str | None) -> None:
    """Stream rows, each a tuple (kind, *values) with kinds[kind] naming
    the keys of its values, to the file at path, or to stdout when path is
    None. Each kind, a str, is also the record's "record" tag.

    Rows are read, encoded and written a chunk at a time, through the
    sink's own buffering. The format is checked before the file is opened.
    """
    header, encode = _encoder(kinds, fmt)
    sink = sys.stdout if path is None else open(path, "w", encoding="utf-8",
                                                newline="")
    try:
        sink.write(header)
        for kind, run in groupby(rows, itemgetter(0)):
            while chunk := list(islice(run, _CHUNK)):
                sink.write(encode(kind, chunk))
        # a reader that closed stdout shows here, not at interpreter exit
        sink.flush()
    finally:
        if path is not None:
            sink.close()

