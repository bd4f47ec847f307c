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
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .graph import (
    EntityRecord,
    KnowledgeGraph,
    RelationRecord,
    Triple,
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

    @property
    def entity_index(self) -> dict[str, int]:
        return {raw: i for i, raw in enumerate(self.entity_raw_ids)}

    @property
    def relation_index(self) -> dict[str, int]:
        return {raw: i for i, raw in enumerate(self.relation_raw_ids)}


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


def load_dataset(directory) -> Dataset:
    directory = str(directory)
    ent_path = os.path.join(directory, ENTITY_FILE)
    rel_path = os.path.join(directory, RELATION_FILE)
    for path in (ent_path, rel_path, os.path.join(directory, SPLIT_FILES["train"])):
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing dataset file: {path}")

    entities: list[EntityRecord] = []
    entity_raw: list[str] = []
    entity_ids: dict[str, int] = {}
    for line_no, cols in _read_rows(ent_path, 1, 3):
        raw = cols[0]
        if raw in entity_ids:
            raise DataError(ent_path, line_no, f"duplicate entity id {raw!r}")
        name = cols[1].strip() if len(cols) > 1 else ""
        desc = cols[2].strip() if len(cols) > 2 else ""
        entity_ids[raw] = len(entities)
        entities.append(EntityRecord(name or raw, desc, len(entities)))
        entity_raw.append(raw)

    base_rels: list[RelationRecord] = []
    relation_raw: list[str] = []
    relation_ids: dict[str, int] = {}
    for line_no, cols in _read_rows(rel_path, 1, 3):
        raw = cols[0]
        if raw in relation_ids:
            raise DataError(rel_path, line_no, f"duplicate relation id {raw!r}")
        name = cols[1].strip() if len(cols) > 1 else ""
        desc = cols[2].strip() if len(cols) > 2 else ""
        relation_ids[raw] = len(base_rels)
        base_rels.append(RelationRecord(name or raw, desc, len(base_rels)))
        relation_raw.append(raw)

    splits: dict[str, list[Triple]] = {}
    for split, fname in SPLIT_FILES.items():
        path = os.path.join(directory, fname)
        triples: list[Triple] = []
        if os.path.exists(path):
            for line_no, cols in _read_rows(path, 3, 3):
                h_raw, r_raw, t_raw = cols
                for raw, table, kind in (
                    (h_raw, entity_ids, "entity"),
                    (r_raw, relation_ids, "relation"),
                    (t_raw, entity_ids, "entity"),
                ):
                    if raw not in table:
                        raise DataError(
                            path, line_no, f"undeclared {kind} id {raw!r}"
                        )
                triples.append(
                    Triple(entity_ids[h_raw], relation_ids[r_raw], entity_ids[t_raw])
                )
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
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as f:
            for h, r, t in graph.triples(split):
                if r >= graph.num_base_relations:
                    continue
                f.write(
                    f"{entity_raw_ids[h]}\t{relation_raw_ids[r]}\t{entity_raw_ids[t]}\n"
                )


def corpus_texts(graph: KnowledgeGraph):
    """Token-count stream for vocabulary building.

    Yields the rendered text of every training triple occurrence, so a
    token's count reflects how often the encoder will actually see it.
    """
    for h, r, t in graph.triples("train"):
        head, rel, tail = graph.entities[h], graph.relations[r], graph.entities[t]
        yield head.name
        yield head.description
        yield rel.name
        yield rel.description
        yield tail.name
        yield tail.description


def build_tokenizer(graph: KnowledgeGraph, min_freq: int = 2) -> Tokenizer:
    return Tokenizer.build(corpus_texts(graph), min_freq=min_freq)
