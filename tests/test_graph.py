import numpy as np
import pytest

from structkgc.graph import (
    EntityRecord,
    GraphError,
    KnowledgeGraph,
    RelationRecord,
    Triple,
    add_inverse_triples,
    inverse_relation_id,
)


def make_records(n_entities, n_relations):
    ents = [EntityRecord(f"e{i}", f"entity number {i}", i) for i in range(n_entities)]
    rels = [RelationRecord(f"r{i}", "", i) for i in range(n_relations)]
    return ents, rels


# A, B, X, Y, Z -> ids 0..4
A, B, X, Y, Z = range(5)
R = 0


def five_entity_graph():
    ents, rels = make_records(5, 1)
    train = [Triple(A, R, X), Triple(A, R, Y), Triple(B, R, Z)]
    return KnowledgeGraph(ents, rels, {"train": train})


class TestBuildGraph:
    def test_adjacency_indexes(self):
        g = five_entity_graph()
        assert g.tails_by_relation(R) == {X, Y, Z}
        assert g.tails_by_pair(A, R) == {X, Y}
        assert g.tails_by_pair(B, R) == {Z}

    def test_empty_triples(self):
        ents, rels = make_records(3, 1)
        g = KnowledgeGraph(ents, rels, {"train": []})
        assert g.tails_by_relation(R) == frozenset()
        assert g.triples("train") == ()

    def test_dangling_entity_names_triple(self):
        ents, rels = make_records(5, 1)
        with pytest.raises(GraphError, match=r"\(0, 0, 99\)"):
            KnowledgeGraph(ents, rels, {"train": [Triple(0, 0, 99)]})

    def test_dangling_relation(self):
        ents, rels = make_records(2, 1)
        with pytest.raises(GraphError, match="relation"):
            KnowledgeGraph(ents, rels, {"train": [Triple(0, 3, 1)]})

    def test_non_contiguous_ids_rejected(self):
        ents = [EntityRecord("a", "", 0), EntityRecord("b", "", 2)]
        with pytest.raises(GraphError, match="contiguous"):
            KnowledgeGraph(ents, [RelationRecord("r", "", 0)], {})

    def test_union_invariant_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n_e, n_r = int(rng.integers(2, 10)), int(rng.integers(1, 4))
            ents, rels = make_records(n_e, n_r)
            triples = [
                Triple(
                    int(rng.integers(0, n_e)),
                    int(rng.integers(0, n_r)),
                    int(rng.integers(0, n_e)),
                )
                for _ in range(int(rng.integers(0, 30)))
            ]
            g = KnowledgeGraph(ents, rels, {"train": triples})
            for r in range(n_r):
                union = frozenset()
                for h in range(n_e):
                    union = union | g.tails_by_pair(h, r)
                assert g.tails_by_relation(r) == union

    def test_index_matches_brute_force_scan(self):
        rng = np.random.default_rng(1)
        n_e, n_r = 8, 3
        ents, rels = make_records(n_e, n_r)
        triples = [
            Triple(
                int(rng.integers(0, n_e)),
                int(rng.integers(0, n_r)),
                int(rng.integers(0, n_e)),
            )
            for _ in range(40)
        ]
        g = KnowledgeGraph(ents, rels, {"train": triples})
        for h in range(n_e):
            for r in range(n_r):
                brute = {t.tail for t in triples if t.head == h and t.relation == r}
                assert g.tails_by_pair(h, r) == brute

    def test_training_triples_in_pair_index(self):
        g = five_entity_graph()
        for t in g.triples("train"):
            assert t.tail in g.tails_by_pair(t.head, t.relation)

    def test_self_loop_indexed_normally(self):
        ents, rels = make_records(2, 1)
        g = KnowledgeGraph(ents, rels, {"train": [Triple(0, 0, 0)]})
        assert g.tails_by_pair(0, 0) == {0}
        assert g.is_known_true(0, 0, 0, ["train"])


class TestLookups:
    def test_single_split_returns_the_stored_set(self):
        g = five_entity_graph()
        assert g.tails_by_relation(R) is g.tails_by_relation(R, ["train"])
        assert g.tails_by_pair(A, R) is g.tails_by_pair(A, R, iter(["train"]))
        assert g.tails_by_pair(Z, R) == frozenset()

    def test_split_unions_accept_any_iterable(self):
        ents, rels = make_records(5, 1)
        g = KnowledgeGraph(ents, rels, {"train": [Triple(A, R, X)],
                                     "valid": [Triple(A, R, Y)],
                                     "test": [Triple(B, R, Z)]})
        splits = (s for s in ("train", "valid"))
        assert g.tails_by_pair(A, R, splits) == {X, Y}
        assert g.tails_by_relation(R, ["train", "valid", "test"]) == {X, Y, Z}
        assert g.tails_by_relation(R, ()) == frozenset()
        with pytest.raises(KeyError):
            g.tails_by_relation(R, ["dev"])

    def test_train_tail_array_is_sorted_train_e_r(self):
        rng = np.random.default_rng(2)
        ents, rels = make_records(30, 4)
        triples = [Triple(int(rng.integers(30)), int(rng.integers(3)), int(rng.integers(30)))
                   for _ in range(80)]
        g = KnowledgeGraph(ents, rels, {"train": triples, "test": [Triple(0, 3, 1)]})
        for r in range(4):
            arr = g.train_tail_array(r)
            assert arr.dtype == np.int64 and not arr.flags.writeable
            assert arr.tolist() == sorted(g.tails_by_relation(r, ("train",)))
        assert g.train_tail_array(3).size == 0  # relation 3 is test-only

    def test_pair_tails_within_relation_tails(self):
        # the trainer's O(1) fallback count relies on e(h, r) <= e(r)
        rng = np.random.default_rng(3)
        ents, rels = make_records(12, 3)
        triples = [Triple(int(rng.integers(12)), int(rng.integers(3)), int(rng.integers(12)))
                   for _ in range(60)]
        g = KnowledgeGraph(ents, rels, {"train": triples})
        for h, r, _ in triples:
            assert g.tails_by_pair(h, r) <= g.tails_by_relation(r)


class TestInverseTriples:
    def test_single_triple(self):
        out = add_inverse_triples([Triple(A, 0, X)], 1)
        assert out == [Triple(A, 0, X), Triple(X, 1, A)]

    def test_empty(self):
        assert add_inverse_triples([], 3) == []

    def test_two_triples_base_two(self):
        out = add_inverse_triples([Triple(A, 0, X), Triple(B, 0, Y)], 2)
        assert len(out) == 4
        assert out[:2] == [Triple(A, 0, X), Triple(B, 0, Y)]
        assert out[2:] == [Triple(X, 2, A), Triple(Y, 2, B)]

    def test_already_inverse_rejected(self):
        with pytest.raises(GraphError, match="inverse"):
            add_inverse_triples([Triple(A, 1, X)], 1)

    def test_involution_consistency(self):
        rng = np.random.default_rng(2)
        base = 4
        triples = [
            Triple(int(rng.integers(0, 9)), int(rng.integers(0, base)), int(rng.integers(0, 9)))
            for _ in range(25)
        ]
        doubled = add_inverse_triples(triples, base)
        for orig, inv in zip(doubled[: len(triples)], doubled[len(triples):]):
            back = Triple(inv.tail, inverse_relation_id(inv.relation, base), inv.head)
            assert back == orig
            assert inverse_relation_id(inverse_relation_id(orig.relation, base), base) == orig.relation


class TestKnownTrue:
    def test_membership_in_train(self):
        g = five_entity_graph()
        assert g.is_known_true(A, R, X, ["train"])

    def test_absent_everywhere(self):
        g = five_entity_graph()
        assert not g.is_known_true(A, R, Z, ["train", "valid", "test"])

    def test_split_scoping(self):
        ents, rels = make_records(5, 1)
        g = KnowledgeGraph(ents, rels, {"test": [Triple(A, R, X)]})
        assert not g.is_known_true(A, R, X, ["train", "valid"])
        assert g.is_known_true(A, R, X, ["test"])
