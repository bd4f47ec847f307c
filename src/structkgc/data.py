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

Every file is read in one pass, as columns, with no object per line:
its non-blank lines are split once, and a tab count per line checks
the column count.

- A vocabulary file's lines have one to three columns.  Shorter lines
  are padded to three, each column is one slice of the split fields,
  and the strip and the name fallback run per column; a duplicate id
  shows as an id map shorter than the file.  The graph keeps the name
  and description columns as they are.
- A triple file's lines have three columns, each mapped through the id
  maps into an int64 array, with -1 for an id the vocabulary files do
  not declare; the inverses are one array operation on the result.

Only when a line is bad (a wrong column count, a duplicate or an
undeclared id) is the file scanned again line by line, to raise a
``DataError`` naming the first offending ``path:line`` (blank lines
count in the numbering).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .graph import (
    DataError,
    KnowledgeGraph,
    RelationRecord,
    add_inverse_triples,
    inverse_relation_records,
)
from .text import Tokenizer

SPLIT_FILES = {"train": "train.txt", "valid": "valid.txt", "test": "test.txt"}
ENTITY_FILE = "entities.txt"
RELATION_FILE = "relations.txt"


@dataclass
class Dataset:
    graph: KnowledgeGraph
    entity_raw_ids: list[str]
    relation_raw_ids: list[str]  # base relations only


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


def _read_lines(path) -> tuple[list[str], np.ndarray]:
    """The file's non-blank lines and the tab count of each."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().split("\n") if line.strip()]
    return lines, np.fromiter(map(str.count, lines, repeat("\t")), dtype=np.int64,
                              count=len(lines))


_PADDING = ("\t\t", "\t", "")  # by tab count


def _read_vocabulary(path, kind: str):
    """Names, descriptions, raw ids and the raw-to-dense id map of an
    entity or relation file, read as columns."""
    lines, tabs = _read_lines(path)
    n = len(lines)
    if np.any(tabs > 2):
        _raise_vocabulary_error(path, kind)
    if np.any(tabs < 2):  # pad missing name and description columns
        lines = [line + _PADDING[t] for line, t in zip(lines, tabs.tolist())]
    fields = "\t".join(lines).split("\t") if n else []
    raw_ids = fields[0::3]
    ids = dict(zip(raw_ids, range(n)))
    if len(ids) != n:
        _raise_vocabulary_error(path, kind)
    names = list(map(str.strip, fields[1::3]))
    if "" in names:  # missing name -> raw id
        names = [name or raw for name, raw in zip(names, raw_ids)]
    descriptions = list(map(str.strip, fields[2::3]))
    return names, descriptions, raw_ids, ids


def _raise_vocabulary_error(path, kind: str):
    """Scan a vocabulary file line by line and raise for its first bad line."""
    seen = set()
    for line_no, cols in _read_rows(path, 1, 3):
        if cols[0] in seen:
            raise DataError(path, line_no, f"duplicate {kind} id {cols[0]!r}")
        seen.add(cols[0])
    raise AssertionError(f"{path} has no bad line to report")


def _read_triples(path, entity_ids: dict[str, int],
                  relation_ids: dict[str, int]) -> np.ndarray:
    """The file's triples as an (n, 3) int64 array of dense ids."""
    lines, tabs = _read_lines(path)
    n = len(lines)
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

    names, descriptions, entity_raw, entity_ids = _read_vocabulary(ent_path, "entity")
    rel_names, rel_descriptions, relation_raw, relation_ids = _read_vocabulary(
        rel_path, "relation")
    base_rels = [RelationRecord(name, desc, i)
                 for i, (name, desc) in enumerate(zip(rel_names, rel_descriptions))]

    splits: dict[str, np.ndarray] = {}
    for split, fname in SPLIT_FILES.items():
        path = os.path.join(directory, fname)
        triples = _read_triples(path, entity_ids, relation_ids) if os.path.exists(path) else ()
        splits[split] = add_inverse_triples(triples, len(base_rels))

    relations = base_rels + inverse_relation_records(base_rels)
    graph = KnowledgeGraph.from_columns(names, descriptions, relations, splits,
                                        num_base_relations=len(base_rels))
    return Dataset(graph, entity_raw, relation_raw)


def write_dataset(graph: KnowledgeGraph, entity_raw_ids, relation_raw_ids, directory):
    """Serialize back to the file layout; inverse triples are stripped."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, ENTITY_FILE), "w", encoding="utf-8") as f:
        f.writelines(
            f"{entity_raw_ids[i]}\t{name}\t{desc}\n"
            for i, (name, desc) in enumerate(zip(graph.entity_names,
                                                 graph.entity_descriptions))
        )
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
    names, descs, rels = graph.entity_names, graph.entity_descriptions, graph.relations
    for h, r, t in graph.triples("train").tolist():
        yield names[h]
        yield descs[h]
        yield rels[r].name
        yield rels[r].description
        yield names[t]
        yield descs[t]


def build_tokenizer(graph: KnowledgeGraph, min_freq: int = 2) -> Tokenizer:
    return Tokenizer.build(corpus_texts(graph), min_freq=min_freq)
