"""Record serialization for the command-line reports.

Records are flat mappings with a leading "record" kind tag. Two encodings
carry identical values: CSV (single header row over the union of keys,
RFC 4180 quoting, blank cell for a key a record lacks) and JSON lines (one
object per record, missing keys omitted). Floats are rendered as shortest
round-trip decimals, so no precision is lost in either encoding and the
same invocation always produces the same bytes.
"""

from __future__ import annotations

import sys

# json, csv and numbers are imported where they are used, so that a call
# loads only the encoder it writes with

FORMATS = ("csv", "jsonl")

_BUILTIN_SCALARS = (float, int, str, type(None))


def _plain(value):
    """Coerce numpy scalars and friends to plain Python values."""
    if type(value) in _BUILTIN_SCALARS:
        return value
    # a numpy scalar can only reach here once something has imported numpy
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.generic):
        if isinstance(value, np.bool_):
            return bool(value)
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, str):
        return value
    import numbers

    if isinstance(value, numbers.Real):
        return float(value)
    raise TypeError(f"unsupported record value {value!r}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_records(records: list[dict], fmt: str) -> str:
    """Render records in the given format ("csv" or "jsonl")."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    rows = [{key: _plain(value) for key, value in rec.items()} for rec in records]

    if fmt == "jsonl":
        import json

        lines = [json.dumps(row, separators=(", ", ": ")) for row in rows]
        return "\n".join(lines) + "\n"

    import csv
    import io

    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row[key]) if key in row else ""
                         for key in columns])
    return sink.getvalue()


def write_records(records: list[dict], fmt: str, path: str | None) -> str:
    """Render and write records to path (or return only, when path is
    None); always returns the rendered text."""
    text = format_records(records, fmt)
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as sink:
            sink.write(text)
    return text
