"""Dataset ingestion in the tab-separated KGC file layout.

A dataset directory holds ``train.txt`` / ``valid.txt`` / ``test.txt``
(lines of ``head<TAB>relation<TAB>tail`` raw string ids), an entity file
``entities.txt`` (``entity_id<TAB>name<TAB>description``) and a relation
file ``relations.txt`` (``relation_id<TAB>name[<TAB>description]``).
The public WN18RR / FB15k-237 distributions drop in after a rename to
this layout.

Loading assigns dense ids in file order, applies the name fallbacks
(missing name -> raw id string, missing description -> empty) and
appends inverse triples to every split so head prediction becomes tail
prediction over inverse relations, with filtering correct in both
directions.

Each triple file is read in one pass: its non-blank lines are split
once, every column is mapped through the entity and relation id dicts
into an int64 array, with -1 for an id the vocabulary files do not
declare, and the inverses are one array operation on the ``(n, 3)``
result.  Only when a column count is wrong or a -1 shows up is the file
scanned again line by line, to raise a ``DataError`` naming the first
offending ``path:line`` (blank lines count in the numbering).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .graph import (
    EntityRecord,
    KnowledgeGraph,
    RelationRecord,
    add_inverse_triples,
    inverse_relation_records,
)
from .text import Tokenizer

SPLIT_FILES = {"train": "train.txt", "valid": "valid.txt", "test": "test.txt"}
ENTITY_FILE = "entities.txt"
RELATION_FILE = "relations.txt"


class DataError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass
class Dataset:
    graph: KnowledgeGraph
    entity_raw_ids: list[str]
    relation_raw_ids: list[str]  # base relations only
    directory: str


def _read_rows(path, min_cols, max_cols):
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


def _read_vocabulary(path, kind: str, record_type):
    """Records, raw ids and the raw-to-dense id map of an entity or relation file."""
    records, raw_ids, ids = [], [], {}
    for line_no, cols in _read_rows(path, 1, 3):
        raw = cols[0]
        if raw in ids:
            raise DataError(path, line_no, f"duplicate {kind} id {raw!r}")
        name = cols[1].strip() if len(cols) > 1 else ""
        desc = cols[2].strip() if len(cols) > 2 else ""
        ids[raw] = len(records)
        records.append(record_type(name or raw, desc, len(records)))
        raw_ids.append(raw)
    return records, raw_ids, ids


def _read_triples(path, entity_ids: dict[str, int],
                  relation_ids: dict[str, int]) -> np.ndarray:
    """The file's triples as an (n, 3) int64 array of dense ids."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().split("\n") if line.strip()]
    n = len(lines)
    tabs = np.fromiter(map(str.count, lines, repeat("\t")), dtype=np.int64, count=n)
    if np.any(tabs != 2):
        _raise_first_error(path, entity_ids, relation_ids)
    fields = "\t".join(lines).split("\t")
    columns = [
        np.fromiter(map(table.get, fields[c::3], repeat(-1)), dtype=np.int64, count=n)
        for c, table in enumerate((entity_ids, relation_ids, entity_ids))
    ]
    triples = np.stack(columns, axis=1)
    if np.any(triples < 0):
        _raise_first_error(path, entity_ids, relation_ids)
    return triples


def _raise_first_error(path, entity_ids: dict[str, int], relation_ids: dict[str, int]):
    """Scan a triple file line by line and raise for its first bad line."""
    for line_no, cols in _read_rows(path, 3, 3):
        for raw, table, kind in zip(cols, (entity_ids, relation_ids, entity_ids),
                                    ("entity", "relation", "entity")):
            if raw not in table:
                raise DataError(path, line_no, f"undeclared {kind} id {raw!r}")
    raise AssertionError(f"{path} has no bad line to report")


def load_dataset(directory) -> Dataset:
    directory = str(directory)
    ent_path = os.path.join(directory, ENTITY_FILE)
    rel_path = os.path.join(directory, RELATION_FILE)
    for path in (ent_path, rel_path, os.path.join(directory, SPLIT_FILES["train"])):
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing dataset file: {path}")

    entities, entity_raw, entity_ids = _read_vocabulary(ent_path, "entity", EntityRecord)
    base_rels, relation_raw, relation_ids = _read_vocabulary(
        rel_path, "relation", RelationRecord)

    splits: dict[str, np.ndarray] = {}
    for split, fname in SPLIT_FILES.items():
        path = os.path.join(directory, fname)
        triples = _read_triples(path, entity_ids, relation_ids) if os.path.exists(path) else ()
        splits[split] = add_inverse_triples(triples, len(base_rels))

    relations = base_rels + inverse_relation_records(base_rels)
    graph = KnowledgeGraph(entities, relations, splits, num_base_relations=len(base_rels))
    return Dataset(graph, entity_raw, relation_raw, directory)


def write_dataset(graph: KnowledgeGraph, entity_raw_ids, relation_raw_ids, directory):
    """Serialize back to the file layout; inverse triples are stripped."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, ENTITY_FILE), "w", encoding="utf-8") as f:
        for rec in graph.entities:
            f.write(f"{entity_raw_ids[rec.id]}\t{rec.name}\t{rec.description}\n")
    with open(os.path.join(directory, RELATION_FILE), "w", encoding="utf-8") as f:
        for rec in graph.relations[: graph.num_base_relations]:
            f.write(f"{relation_raw_ids[rec.id]}\t{rec.name}\t{rec.description}\n")
    for split, fname in SPLIT_FILES.items():
        triples = graph.triples(split)
        base = triples[triples[:, 1] < graph.num_base_relations].tolist()
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as f:
            f.writelines(
                f"{entity_raw_ids[h]}\t{relation_raw_ids[r]}\t{entity_raw_ids[t]}\n"
                for h, r, t in base
            )


def corpus_texts(graph: KnowledgeGraph):
    """Token-count stream for vocabulary building.

    Yields the rendered text of every training triple occurrence, so a
    token's count reflects how often the encoder will actually see it.
    """
    for h, r, t in graph.triples("train").tolist():
        head, rel, tail = graph.entities[h], graph.relations[r], graph.entities[t]
        yield head.name
        yield head.description
        yield rel.name
        yield rel.description
        yield tail.name
        yield tail.description


def build_tokenizer(graph: KnowledgeGraph, min_freq: int = 2) -> Tokenizer:
    return Tokenizer.build(corpus_texts(graph), min_freq=min_freq)
