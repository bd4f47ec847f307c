"""The readers that ``structkgc.data``'s columnar ones replaced.

- ``read_vocabulary`` reads an entity or relation file one line at a
  time: each non-blank line is split into a ``(line_no, cols)`` row, the
  column count is checked for every row before any id is, and each row
  becomes one record with the name fallback (missing name -> raw id)
  applied.
- ``read_triples`` reads a triple file as ``str`` columns: its non-blank
  lines are split once and every field is looked up in the raw-to-dense
  id ``dict``s of the vocabulary files, one ``str`` object per field.

Tests pin ``structkgc.data``'s readers to them, value for value and error
for error.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

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


def read_lines(path) -> tuple[list[str], np.ndarray]:
    """The file's non-blank lines and the tab count of each."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().split("\n") if line.strip()]
    return lines, np.fromiter(map(str.count, lines, repeat("\t")), dtype=np.int64,
                              count=len(lines))


def read_triples(path, entity_ids: dict[str, int],
                 relation_ids: dict[str, int]) -> np.ndarray:
    """The file's triples as an (n, 3) int64 array of dense ids."""
    lines, tabs = read_lines(path)
    n = len(lines)
    if np.any(tabs != 2):
        raise_first_error(path, entity_ids, relation_ids)
    fields = "\t".join(lines).split("\t")
    columns = [
        np.fromiter(map(table.get, fields[c::3], repeat(-1)), dtype=np.int64, count=n)
        for c, table in enumerate((entity_ids, relation_ids, entity_ids))
    ]
    triples = np.stack(columns, axis=1)
    if np.any(triples < 0):
        raise_first_error(path, entity_ids, relation_ids)
    return triples


def raise_first_error(path, entity_ids: dict[str, int], relation_ids: dict[str, int]):
    """Scan a triple file line by line and raise for its first bad line."""
    for line_no, cols in read_rows(path, 3, 3):
        for raw, table, kind in zip(cols, (entity_ids, relation_ids, entity_ids),
                                    ("entity", "relation", "entity")):
            if raw not in table:
                raise DataError(path, line_no, f"undeclared {kind} id {raw!r}")
    raise AssertionError(f"{path} has no bad line to report")
