"""The frozenset-backed knowledge graph that the array-backed one replaced.

Each split is a tuple of ``Triple``s, indexed eagerly into per-split
dicts of frozensets: e(r) by relation and e(h, r) by (head, relation),
with a union over the selected splits on every multi-split lookup.
Tests pin ``structkgc.graph.KnowledgeGraph`` to it, lookup for lookup.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from structkgc.graph import SPLITS, EntityRecord, GraphError, RelationRecord, Triple


class ReferenceGraph:
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



def entity_records(graph) -> list[EntityRecord]:
    """A ``KnowledgeGraph``'s entity text as the records the reference takes."""
    return [EntityRecord(name, desc, i) for i, (name, desc)
            in enumerate(zip(graph.entity_names, graph.entity_descriptions))]


class ReferenceAsArrays:
    """A ``ReferenceGraph`` behind the array interface the trainer reads.

    Converts the way the callers of the old graph did: triples as an
    ``(n, 3)`` array in split order and train e(r) through the sorted
    ``train_tail_array``.  e(h, r) is sorted, as ``KnowledgeGraph``
    promises and ``in_batch_mask``'s binary search needs.  Entity text
    is the two columns ``KnowledgeGraph`` keeps.
    """

    def __init__(self, reference: ReferenceGraph):
        self._reference = reference
        self.entity_names = tuple(e.name for e in reference.entities)
        self.entity_descriptions = tuple(e.description for e in reference.entities)

    def __getattr__(self, name):
        return getattr(self._reference, name)

    def triples(self, split: str) -> np.ndarray:
        rows = self._reference.triples(split)
        return np.array(rows, dtype=np.int64).reshape(len(rows), 3)

    def tails_by_pair(self, head, relation, splits=("train",)) -> np.ndarray:
        tails = self._reference.tails_by_pair(head, relation, splits)
        return np.sort(np.fromiter(tails, dtype=np.int64, count=len(tails)))

    def tails_by_relation(self, relation, splits=("train",)) -> np.ndarray:
        splits = tuple(splits)
        if splits == ("train",):
            return self._reference.train_tail_array(relation)
        tails = self._reference.tails_by_relation(relation, splits)
        return np.sort(np.fromiter(tails, dtype=np.int64, count=len(tails)))
