"""The per-line vocabulary reader that the columnar one replaced.

Reads an entity or relation file one line at a time: each non-blank
line is split into a ``(line_no, cols)`` row, the column count is checked
for every row before any id is, and each row becomes one record with the
name fallback (missing name -> raw id) applied.  Tests pin
``structkgc.data``'s columnar reader to it, value for value and error for
error.
"""

from __future__ import annotations

from structkgc.data import DataError
from structkgc.graph import EntityRecord


def read_rows(path, min_cols, max_cols):
    rows = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if not min_cols <= len(cols) <= max_cols:
                raise DataError(
                    path, line_no,
                    f"expected {min_cols}..{max_cols} tab-separated columns, "
                    f"got {len(cols)}",
                )
            rows.append((line_no, cols))
    return rows


def read_vocabulary(path, kind: str, record_type=EntityRecord):
    """Records, raw ids and the raw-to-dense id map of an entity or relation file."""
    records, raw_ids, ids = [], [], {}
    for line_no, cols in read_rows(path, 1, 3):
        raw = cols[0]
        if raw in ids:
            raise DataError(path, line_no, f"duplicate {kind} id {raw!r}")
        name = cols[1].strip() if len(cols) > 1 else ""
        desc = cols[2].strip() if len(cols) > 2 else ""
        ids[raw] = len(records)
        records.append(record_type(name or raw, desc, len(records)))
        raw_ids.append(raw)
    return records, raw_ids, ids
