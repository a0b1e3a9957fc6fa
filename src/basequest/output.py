"""Record serialization for the command-line reports.

Records are flat mappings with a leading "record" kind tag. Two encodings
carry identical values: CSV (single header row over the union of keys,
RFC 4180 quoting, blank cell for a key a record lacks) and JSON lines (one
object per record, missing keys omitted). Floats are rendered as shortest
round-trip decimals, so no precision is lost in either encoding and the
same invocation always produces the same bytes.

Rows are tuples (kind, *values), whose kinds' keys are declared before the
first row, so the CSV header and each kind's line layout (its fixed texts,
and the order of the values between them) are fixed up front. Rows are
encoded a chunk of one kind at a time, a column at a time: a column of
plain ints and floats (finite ones, in JSON) is rendered as their reprs,
any other column value by value.
"""

from __future__ import annotations

import sys
from itertools import chain, groupby, islice, repeat
from operator import itemgetter

# json is imported where it is used, so that a CSV call loads no encoder

FORMATS = ("csv", "jsonl")

# Value types a record may hold, exactly: a numpy scalar is refused.
_PLAIN = frozenset((int, float, str, bool, type(None)))
# Value types whose repr is their text in both encodings.
_NUMBERS = frozenset((int, float))
# Characters that make a CSV cell quoted.
_QUOTED = frozenset(',"\n\r')
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
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if _QUOTED.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _encoder(kinds: dict, fmt: str):
    """(header, encode): the CSV header line ("" in JSON lines), and
    encode(kind, rows), the text of a list of rows of one kind.

    kinds maps each kind, a str that is also the record's leading "record"
    tag, to the keys of its values.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    columns = list(dict.fromkeys(chain(["record"], *kinds.values())))
    layouts = {}
    if fmt == "jsonl":
        import json

        cell = json.dumps
        header = ""
        for kind, keys in kinds.items():
            text, texts = '{"record": ' + cell(_plain(kind)), []
            for key in keys:
                texts.append(f"{text}, {cell(key)}: ")
                text = ""
            layouts[kind] = [*texts, text + "}\n"], range(len(keys))
    else:
        cell = _csv_cell
        header = ",".join(map(cell, columns)) + "\n"
        for kind, keys in kinds.items():
            # csv quotes a line's one empty cell, to tell it from a blank line
            text = cell(_plain(kind)) or ("" if columns[1:] else '""')
            where = {key: position for position, key in enumerate(keys)}
            texts, order = [], []
            for column in columns[1:]:
                text += ","
                if column in where:
                    texts.append(text)
                    order.append(where[column])
                    text = ""
            layouts[kind] = [*texts, text + "\n"], order

    def rendered(values):
        """The texts of one column of a chunk."""
        if _NUMBERS.issuperset(map(type, values)):
            texts = list(map(repr, values))
            # a non-finite float's repr (inf, nan) holds an "n", and JSON
            # spells it Infinity or NaN; a finite float or an int never does
            if fmt == "csv" or "n" not in "".join(texts):
                return texts
        return [cell(_plain(value)) for value in values]

    def encode(kind, rows):
        if kind not in layouts:
            raise ValueError(f"a row of kind {kind!r}, which is not declared")
        texts, order = layouts[kind]
        _, *values = zip(*rows, strict=True)
        if len(values) != len(order):
            raise ValueError(f"a {kind!r} row holds {len(values)} values, "
                             f"not one per key of {kinds[kind]!r}")
        count = len(rows)
        parts = [repeat(texts[0], count)]
        for position, text in zip(order, texts[1:]):
            parts += [rendered(values[position]), repeat(text, count)]
        return "".join(chain.from_iterable(zip(*parts)))

    return header, encode


def write_records(kinds: dict, rows, fmt: str, path: str | None) -> None:
    """Stream rows, each a tuple (kind, *values) with kinds[kind] naming
    the keys of its values, to the file at path, or to stdout when path is
    None. Each kind, a str, is also the record's "record" tag.

    Rows are read, encoded and written a chunk at a time, through the
    sink's own buffering. The format is checked before the file is opened;
    a row of an undeclared kind, or with other than one value per key of
    its kind, raises ValueError.
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
