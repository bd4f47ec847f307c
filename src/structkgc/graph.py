"""Immutable knowledge-graph data model on int64 arrays.

Entities and relations carry dense 0-based integer ids.  When inverse
relations are in play they occupy the upper half of the relation id
space: ``id(r_inverse) = id(r) + num_base_relations``.
``KnowledgeGraph.with_inverses``, which every dataset is built with,
adds them to the base relations and triples.

Entity text is kept as two columns indexed by entity id,
``entity_names`` and ``entity_descriptions``, not as one object per
entity: a WN18RR-sized graph has ~41k entities, and the dataset loader
hands its parsed columns straight to the graph.
Relations, a few dozen at most, stay ``RelationRecord``s.

Each split is stored as a read-only ``(n, 3)`` int64 array of
``(head, relation, tail)`` rows, in input order with duplicates kept.
The tail lookups read a CSR index over a tuple of splits, with R
relations and E entities:

- the distinct ``(h, r, t)`` rows of those splits in lexicographic
  order, sorted once as the int64 keys ``(h * R + r) * E + t`` (the
  constructor refuses graphs whose keys would overflow);
- their distinct pair keys ``h * R + r``, sorted, with offsets into that
  sorted tail column, so e(h, r) is one slice;
- per-relation offsets into the sorted distinct ``(r, t)`` rows, so
  e(r) is one slice.

An index is built on the first lookup over a split selection and cached
per normalised split tuple (the names in ``SPLITS`` order, so
``("valid", "train")`` and ``("train", "valid")`` share one).  Lookups
return read-only views into it, never copies.  Graphs never mutate
after construction; two threads racing on the first lookup of a
selection build equal indexes, so shared reads stay safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

SPLITS = ("train", "valid", "test")


class GraphError(ValueError):
    """Raised for inconsistent vocabulary/triple inputs."""


class DataError(ValueError):
    """A bad input file, named as ``path:line``, or as ``path`` alone when
    no one line is at fault."""

    def __init__(self, path, line_no: int | None, message: str):
        where = str(path) if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line_no = line_no


def read_text(path) -> str:
    """The whole text of a UTF-8 file with universal newlines (``\\r\\n``
    and a lone ``\\r`` read as ``\\n``).  A byte that is not UTF-8 raises a
    ``DataError`` naming the line it is on."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:  # e.object is the whole file: read() decodes it at once
        head = e.object[:e.start]
        line_no = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise DataError(path, line_no,
                        f"not valid UTF-8: byte 0x{e.object[e.start]:02x} ({e.reason})") from None


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


@dataclass(frozen=True)
class EntityRecord:
    name: str
    description: str
    id: int


@dataclass(frozen=True)
class RelationRecord:
    name: str
    description: str
    id: int


def add_inverse_triples(triples, num_base_relations: int) -> np.ndarray:
    """Append the inverse triple (t, r + R, h) for every (h, r, t).

    Takes an ``(n, 3)`` array (an int64 one is read in place, not copied)
    or any sequence of triples and returns a new ``(2n, 3)`` int64 array:
    originals first, inverses after in matching order.  Input relations
    must be base relations (id < num_base_relations).
    """
    rows = _rows(triples)
    inverse = rows[:, 1] >= num_base_relations
    if inverse.any():
        raise GraphError(
            f"triple {tuple(rows[inverse.argmax()].tolist())} already uses an "
            f"inverse relation id (base relation count is {num_base_relations})"
        )
    return np.concatenate([rows, rows[:, ::-1] + np.array([0, num_base_relations, 0])])


def inverse_relation_records(base: Sequence[RelationRecord]) -> list[RelationRecord]:
    """Records for the inverse relations, rendered as 'inverse of: <name>'."""
    n = len(base)
    return [
        RelationRecord(f"inverse of: {r.name}", r.description, r.id + n)
        for r in base
    ]


class KnowledgeGraph:
    """Entities, relations and per-split triple arrays with lazy CSR indexes.

    Exposes the tail-neighbor sets the samplers and re-ranker need:
    ``tails_by_relation(r)`` is e(r) (also written N_r) and
    ``tails_by_pair(h, r)`` is e(h, r), both over a split selection, as
    sorted, distinct, read-only int64 id arrays.

    The constructor takes ``EntityRecord``s in any order and keeps only
    their text, as the ``entity_names`` and ``entity_descriptions``
    columns; it copies each split it is given, never the caller's array.
    """

    def __init__(
        self,
        entities: Sequence[EntityRecord],
        relations: Sequence[RelationRecord],
        split_triples: Mapping[str, Sequence[Triple] | np.ndarray],
        num_base_relations: int | None = None,
    ):
        entities = _by_id(entities, "entity")
        self._setup(tuple(map(attrgetter("name"), entities)),
                    tuple(map(attrgetter("description"), entities)), relations,
                    {split: np.array(triples, dtype=np.int64)
                     for split, triples in split_triples.items()},
                    num_base_relations)

    @classmethod
    def with_inverses(
        cls,
        entity_names: Sequence[str],
        entity_descriptions: Sequence[str],
        base_relations: Sequence[RelationRecord],
        base_splits: Mapping[str, Sequence[Triple] | np.ndarray],
    ) -> KnowledgeGraph:
        """A graph whose entity ``i`` is named ``entity_names[i]``, over the
        base relations, then their ``inverse_relation_records``; each split
        is the array ``add_inverse_triples`` builds from it, kept uncopied."""
        n = len(base_relations)
        graph = cls.__new__(cls)
        graph._setup(
            tuple(entity_names), tuple(entity_descriptions),
            [*base_relations, *inverse_relation_records(base_relations)],
            {split: add_inverse_triples(triples, n) for split, triples in base_splits.items()},
            num_base_relations=n,
        )
        return graph

    def _setup(self, entity_names: tuple[str, ...], entity_descriptions: tuple[str, ...],
               relations, split_triples: Mapping[str, np.ndarray], num_base_relations):
        """Check the inputs and keep them: each split array becomes the graph's own."""
        if len(entity_names) != len(entity_descriptions):
            raise GraphError(
                f"{len(entity_names)} entity names do not match "
                f"{len(entity_descriptions)} entity descriptions"
            )
        self.entity_names = entity_names
        self.entity_descriptions = entity_descriptions
        self.relations = tuple(_by_id(relations, "relation"))
        if num_base_relations is None:
            num_base_relations = len(self.relations)
        if len(self.relations) not in (num_base_relations, 2 * num_base_relations):
            raise GraphError(
                f"{len(self.relations)} relation records do not match a base "
                f"count of {num_base_relations} (with or without inverses)"
            )
        self.num_base_relations = num_base_relations
        if self.num_entities ** 2 * self.num_relations >= 2 ** 63:
            raise GraphError(
                f"{self.num_entities} entities and {self.num_relations} relations "
                f"overflow the int64 (head, relation, tail) index keys"
            )

        self._splits: dict[str, np.ndarray] = {}
        for split in SPLITS:
            rows = _rows(split_triples.get(split, ()))
            self._validate(rows, split)
            rows.flags.writeable = False
            self._splits[split] = rows
        unknown = set(split_triples) - set(SPLITS)
        if unknown:
            raise GraphError(f"unknown splits: {sorted(unknown)}")
        self._indexes: dict[tuple[str, ...], _Index] = {}

    def _validate(self, rows: np.ndarray, split: str):
        """Raise for the first row that names an unknown entity or relation."""
        bad = (rows < 0) | (rows >= [self.num_entities, self.num_relations, self.num_entities])
        if not bad.any():
            return
        i = int(bad.any(axis=1).argmax())
        kind, kinds, have = (("entity", "entities", self.num_entities) if bad[i, [0, 2]].any()
                             else ("relation", "relations", self.num_relations))
        raise GraphError(f"{split} triple {tuple(rows[i].tolist())} references an unknown "
                         f"{kind} id (have {have} {kinds})")

    def _index(self, splits: Iterable[str]) -> _Index:
        """The CSR index over ``splits``, built on first use and cached."""
        splits = tuple(splits)
        index = self._indexes.get(splits)
        if index is None:
            for split in splits:
                if split not in self._splits:
                    raise KeyError(split)
            key = tuple(s for s in SPLITS if s in splits)
            index = self._indexes.get(key)
            if index is None:
                # one split is indexed from its own read-only array, not a copy
                rows = [self._splits[s] for s in key] or [_NO_ROWS]
                index = _build_index(rows[0] if len(rows) == 1 else np.concatenate(rows),
                                     self.num_entities, self.num_relations)
            self._indexes[key] = self._indexes[splits] = index
        return index

    # ------------------------------------------------------------------
    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    def triples(self, split: str) -> np.ndarray:
        """The split's read-only (n, 3) int64 rows, in input order."""
        return self._splits[split]

    def is_inverse_relation(self, relation: int) -> bool:
        return relation >= self.num_base_relations

    def tails_by_relation(self, relation: int, splits: Iterable[str] = ("train",)) -> np.ndarray:
        """e(r): every tail linked to ``relation`` in the selected splits."""
        index = self._index(splits)
        if not 0 <= relation < self.num_relations:
            return _NO_IDS
        starts = index.relation_starts
        return index.relation_tails[starts[relation]:starts[relation + 1]]

    def tails_by_pair(self, head: int, relation: int, splits: Iterable[str] = ("train",)) -> np.ndarray:
        """e(h, r): tails linked to this exact (head, relation) pair."""
        index = self._index(splits)
        if not 0 <= relation < self.num_relations:
            return _NO_IDS
        key = head * self.num_relations + relation
        i = int(index.pair_keys.searchsorted(key))
        if i == len(index.pair_keys) or index.pair_keys[i] != key:
            return _NO_IDS
        return index.pair_tails[index.pair_starts[i]:index.pair_starts[i + 1]]


class _Index(NamedTuple):
    """CSR tail index over one split selection; every array is read-only."""
    pair_keys: np.ndarray        # sorted distinct h * num_relations + r
    pair_starts: np.ndarray      # pair i's tails: pair_tails[pair_starts[i]:pair_starts[i + 1]]
    pair_tails: np.ndarray       # tail column of the sorted distinct (h, r, t) rows
    relation_starts: np.ndarray  # relation r's tails: relation_tails[starts[r]:starts[r + 1]]
    relation_tails: np.ndarray   # tail column of the sorted distinct (r, t) rows


def _build_index(rows: np.ndarray, num_entities: int, num_relations: int) -> _Index:
    # one int64 key per row orders the rows lexicographically by (h, r, t)
    keys = _distinct(np.sort((rows[:, 0] * num_relations + rows[:, 1]) * num_entities
                             + rows[:, 2]))
    pairs, tails = np.divmod(keys, num_entities)
    first = np.flatnonzero(_run_starts(pairs))
    relations, relation_tails = np.divmod(
        _distinct(np.sort(rows[:, 1] * num_entities + rows[:, 2])), num_entities)
    index = _Index(
        pairs[first],
        np.append(first, len(pairs)),
        tails,
        np.searchsorted(relations, np.arange(num_relations + 1)),
        relation_tails,
    )
    for arr in index:
        arr.flags.writeable = False
    return index


def _by_id(records, kind: str) -> list:
    """``records`` in id order; the ids must be 0..n-1."""
    records = sorted(records, key=attrgetter("id"))
    ids = list(map(attrgetter("id"), records))
    if ids != list(range(len(records))):
        raise GraphError(f"{kind} ids are not contiguous from 0: {ids[:8]}...")
    return records


def _run_starts(sorted_ids: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    starts = np.ones(len(sorted_ids), dtype=bool)
    starts[1:] = sorted_ids[1:] != sorted_ids[:-1]
    return starts


def _distinct(sorted_ids: np.ndarray) -> np.ndarray:
    return sorted_ids[_run_starts(sorted_ids)]


def _rows(triples) -> np.ndarray:
    """An (n, 3) int64 array of an array or any sequence of triples; an
    (n, 3) int64 array is returned as it is, not copied."""
    rows = np.asarray(triples, dtype=np.int64)
    if rows.size == 0 and rows.shape != (0, 3):
        return rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise GraphError(f"triples must be (head, relation, tail) rows, got shape {rows.shape}")
    return rows


_NO_IDS = np.zeros(0, dtype=np.int64)
_NO_IDS.flags.writeable = False
_NO_ROWS = np.zeros((0, 3), dtype=np.int64)
