"""Immutable knowledge-graph data model with adjacency indexes.

Entities and relations carry dense 0-based integer ids.  When inverse
relations are in play they occupy the upper half of the relation id
space: ``id(r_inverse) = id(r) + num_base_relations``.  All indexes are
built eagerly at construction; graphs never mutate afterwards, so they
are safe for unrestricted shared reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

SPLITS = ("train", "valid", "test")


class GraphError(ValueError):
    """Raised for inconsistent vocabulary/triple inputs."""


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


def add_inverse_triples(triples: Sequence[Triple], num_base_relations: int) -> list[Triple]:
    """Append the inverse triple (t, r + R, h) for every (h, r, t).

    Originals come first, inverses follow in matching order.  Input
    relations must be base relations (id < num_base_relations).
    """
    out = [Triple(*t) for t in triples]
    inverses = []
    for t in out:
        if t.relation >= num_base_relations:
            raise GraphError(
                f"triple {tuple(t)} already uses an inverse relation id "
                f"(base relation count is {num_base_relations})"
            )
        inverses.append(Triple(t.tail, t.relation + num_base_relations, t.head))
    return out + inverses


def inverse_relation_id(relation: int, num_base_relations: int) -> int:
    """Map a relation id to its inverse (an involution)."""
    if relation < num_base_relations:
        return relation + num_base_relations
    return relation - num_base_relations


def inverse_relation_records(base: Sequence[RelationRecord]) -> list[RelationRecord]:
    """Records for the inverse relations, rendered as 'inverse of: <name>'."""
    n = len(base)
    return [
        RelationRecord(f"inverse of: {r.name}", r.description, r.id + n)
        for r in base
    ]


class KnowledgeGraph:
    """Entities, relations and per-split triples with eager indexes.

    Exposes the tail-neighbor sets the samplers and re-ranker need:
    ``tails_by_relation(r)`` is e(r) (also written N_r) and
    ``tails_by_pair(h, r)`` is e(h, r), both per split with unions over
    a split selection.
    """

    def __init__(
        self,
        entities: Sequence[EntityRecord],
        relations: Sequence[RelationRecord],
        split_triples: Mapping[str, Sequence[Triple]],
        num_base_relations: int | None = None,
    ):
        self.entities = tuple(sorted(entities, key=lambda e: e.id))
        self.relations = tuple(sorted(relations, key=lambda r: r.id))
        for seq, kind in ((self.entities, "entity"), (self.relations, "relation")):
            ids = [rec.id for rec in seq]
            if ids != list(range(len(seq))):
                raise GraphError(f"{kind} ids are not contiguous from 0: {ids[:8]}...")
        if num_base_relations is None:
            num_base_relations = len(self.relations)
        if len(self.relations) not in (num_base_relations, 2 * num_base_relations):
            raise GraphError(
                f"{len(self.relations)} relation records do not match a base "
                f"count of {num_base_relations} (with or without inverses)"
            )
        self.num_base_relations = num_base_relations

        self._splits: dict[str, tuple[Triple, ...]] = {}
        for split in SPLITS:
            triples = tuple(Triple(*t) for t in split_triples.get(split, ()))
            for t in triples:
                self._validate_triple(t, split)
            self._splits[split] = triples
        unknown = set(split_triples) - set(SPLITS)
        if unknown:
            raise GraphError(f"unknown splits: {sorted(unknown)}")

        # eager adjacency indexes, one per split
        self._tails_by_relation: dict[str, dict[int, frozenset[int]]] = {}
        self._tails_by_pair: dict[str, dict[tuple[int, int], frozenset[int]]] = {}
        self._triple_sets: dict[str, frozenset[Triple]] = {}
        for split, triples in self._splits.items():
            by_rel: dict[int, set[int]] = {}
            by_pair: dict[tuple[int, int], set[int]] = {}
            for h, r, t in triples:
                by_rel.setdefault(r, set()).add(t)
                by_pair.setdefault((h, r), set()).add(t)
            self._tails_by_relation[split] = {
                r: frozenset(s) for r, s in by_rel.items()
            }
            self._tails_by_pair[split] = {
                p: frozenset(s) for p, s in by_pair.items()
            }
            self._triple_sets[split] = frozenset(triples)
        # train e(r) as sorted read-only id arrays, for the samplers
        self._train_tail_arrays: dict[int, np.ndarray] = {}
        for r, tails in self._tails_by_relation["train"].items():
            arr = np.sort(np.fromiter(tails, dtype=np.int64, count=len(tails)))
            arr.flags.writeable = False
            self._train_tail_arrays[r] = arr

    def _validate_triple(self, t: Triple, split: str):
        if not (0 <= t.head < len(self.entities)) or not (
            0 <= t.tail < len(self.entities)
        ):
            raise GraphError(
                f"{split} triple {tuple(t)} references an unknown entity id "
                f"(have {len(self.entities)} entities)"
            )
        if not 0 <= t.relation < len(self.relations):
            raise GraphError(
                f"{split} triple {tuple(t)} references an unknown relation id "
                f"(have {len(self.relations)} relations)"
            )

    # ------------------------------------------------------------------
    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    def triples(self, split: str) -> tuple[Triple, ...]:
        return self._splits[split]

    def is_inverse_relation(self, relation: int) -> bool:
        return relation >= self.num_base_relations

    def tails_by_relation(self, relation: int, splits: Iterable[str] = ("train",)) -> frozenset[int]:
        """e(r): every tail linked to ``relation`` in the selected splits."""
        return _union(self._tails_by_relation, relation, splits)

    def tails_by_pair(self, head: int, relation: int, splits: Iterable[str] = ("train",)) -> frozenset[int]:
        """e(h, r): tails linked to this exact (head, relation) pair."""
        return _union(self._tails_by_pair, (head, relation), splits)

    def train_tail_array(self, relation: int) -> np.ndarray:
        """Train e(r) as a sorted, read-only int64 array of entity ids."""
        return self._train_tail_arrays.get(relation, _NO_IDS)

    def is_known_true(self, head: int, relation: int, tail: int, splits: Iterable[str]) -> bool:
        t = Triple(head, relation, tail)
        return any(t in self._triple_sets[s] for s in splits)


_NO_IDS = np.zeros(0, dtype=np.int64)
_NO_IDS.flags.writeable = False


def _union(index: Mapping[str, Mapping], key, splits: Iterable[str]) -> frozenset[int]:
    """Union of ``index[split][key]`` over ``splits``; a single split's
    stored (immutable) set is returned as is, without a copy."""
    splits = tuple(splits)
    if len(splits) == 1:
        return index[splits[0]].get(key, frozenset())
    acc: frozenset[int] = frozenset()
    for split in splits:
        acc = acc | index[split].get(key, frozenset())
    return acc

