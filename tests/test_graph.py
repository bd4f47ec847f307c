import os
from itertools import combinations

import numpy as np
import pytest

from structkgc.graph import (
    SPLITS,
    EntityRecord,
    GraphError,
    KnowledgeGraph,
    RelationRecord,
    Triple,
    add_inverse_triples,
    inverse_relation_records,
)

from graph_reference import ReferenceGraph


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
        assert g.tails_by_relation(R).tolist() == [X, Y, Z]
        assert g.tails_by_pair(A, R).tolist() == [X, Y]
        assert g.tails_by_pair(B, R).tolist() == [Z]

    def test_empty_triples(self):
        ents, rels = make_records(3, 1)
        g = KnowledgeGraph(ents, rels, {"train": []})
        assert len(g.tails_by_relation(R)) == 0
        assert len(g.triples("train")) == 0

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

    def test_records_in_any_order_become_id_ordered_columns(self):
        ents, rels = make_records(6, 2)
        shuffled = [ents[i] for i in np.random.default_rng(3).permutation(len(ents))]
        g = KnowledgeGraph(shuffled, rels[::-1], {"train": [Triple(0, 1, 5)]})
        assert g.entity_names == tuple(e.name for e in ents)
        assert g.entity_descriptions == tuple(e.description for e in ents)
        assert g.relations == tuple(rels)
        assert g.triples("train").tolist() == [[0, 1, 5]]

    def test_columns_of_different_lengths_rejected(self):
        _, rels = make_records(1, 1)
        with pytest.raises(GraphError, match="3 entity names do not match 2"):
            KnowledgeGraph.with_inverses(["a", "b", "c"], ["", ""], rels, {})

    def test_copies_an_array_it_is_given(self):
        ents, rels = make_records(3, 1)
        triples = np.array([[0, 0, 1], [1, 0, 2]], dtype=np.int64)
        g = KnowledgeGraph(ents, rels, {"train": triples})
        assert triples.flags.writeable
        assert not np.shares_memory(g.triples("train"), triples)
        triples[0, 2] = 2
        assert g.triples("train").tolist() == [[0, 0, 1], [1, 0, 2]]

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
                union = set()
                for h in range(n_e):
                    union |= set(g.tails_by_pair(h, r).tolist())
                assert g.tails_by_relation(r).tolist() == sorted(union)

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
                assert g.tails_by_pair(h, r).tolist() == sorted(brute)

    def test_training_triples_in_pair_index(self):
        g = five_entity_graph()
        for h, r, t in g.triples("train").tolist():
            assert t in g.tails_by_pair(h, r)

    def test_self_loop_indexed_normally(self):
        ents, rels = make_records(2, 1)
        g = KnowledgeGraph(ents, rels, {"train": [Triple(0, 0, 0)]})
        assert g.tails_by_pair(0, 0).tolist() == [0]
        assert 0 in g.tails_by_pair(0, 0, ["train"])


class TestLookups:
    def test_single_split_returns_the_stored_set(self):
        g = five_entity_graph()
        by_rel, by_pair = g.tails_by_relation(R), g.tails_by_pair(A, R, iter(["train"]))
        assert np.shares_memory(by_rel, g.tails_by_relation(R, ["train"]))
        assert np.shares_memory(by_pair, g.tails_by_pair(A, R))
        assert not by_rel.flags.writeable and not by_pair.flags.writeable
        assert len(g.tails_by_pair(Z, R)) == 0

    def test_split_unions_accept_any_iterable(self):
        ents, rels = make_records(5, 1)
        g = KnowledgeGraph(ents, rels, {"train": [Triple(A, R, X)],
                                     "valid": [Triple(A, R, Y)],
                                     "test": [Triple(B, R, Z)]})
        splits = (s for s in ("train", "valid"))
        assert g.tails_by_pair(A, R, splits).tolist() == [X, Y]
        assert g.tails_by_relation(R, ["train", "valid", "test"]).tolist() == [X, Y, Z]
        assert len(g.tails_by_relation(R, ())) == 0
        with pytest.raises(KeyError):
            g.tails_by_relation(R, ["dev"])

    def test_train_e_r_is_a_sorted_read_only_array(self):
        rng = np.random.default_rng(2)
        ents, rels = make_records(30, 4)
        triples = [Triple(int(rng.integers(30)), int(rng.integers(3)), int(rng.integers(30)))
                   for _ in range(80)]
        g = KnowledgeGraph(ents, rels, {"train": triples, "test": [Triple(0, 3, 1)]})
        for r in range(4):
            arr = g.tails_by_relation(r)
            assert arr.dtype == np.int64 and not arr.flags.writeable
            assert arr.tolist() == sorted({t.tail for t in triples if t.relation == r})
        assert g.tails_by_relation(3).size == 0  # relation 3 is test-only

    def test_split_orders_share_one_index(self):
        ents, rels = make_records(5, 1)
        g = KnowledgeGraph(ents, rels, {"train": [Triple(A, R, X)], "valid": [Triple(A, R, Y)]})
        first = g.tails_by_pair(A, R, ("valid", "train"))
        assert first.tolist() == [X, Y]
        assert np.shares_memory(first, g.tails_by_pair(A, R, ["train", "valid", "train"]))
        assert np.shares_memory(g.tails_by_relation(R, ("train", "valid")),
                                g.tails_by_relation(R, ("valid", "train")))

    def test_pair_tails_within_relation_tails(self):
        # the trainer's O(1) fallback count relies on e(h, r) <= e(r)
        rng = np.random.default_rng(3)
        ents, rels = make_records(12, 3)
        triples = [Triple(int(rng.integers(12)), int(rng.integers(3)), int(rng.integers(12)))
                   for _ in range(60)]
        g = KnowledgeGraph(ents, rels, {"train": triples})
        for h, r, _ in triples:
            assert set(g.tails_by_pair(h, r).tolist()) <= set(g.tails_by_relation(r).tolist())


class TestInverseTriples:
    def test_single_triple(self):
        out = add_inverse_triples([Triple(A, 0, X)], 1)
        assert out.tolist() == [[A, 0, X], [X, 1, A]]

    def test_empty(self):
        assert add_inverse_triples([], 3).shape == (0, 3)

    def test_two_triples_base_two(self):
        out = add_inverse_triples([Triple(A, 0, X), Triple(B, 0, Y)], 2)
        assert len(out) == 4
        assert out[:2].tolist() == [[A, 0, X], [B, 0, Y]]
        assert out[2:].tolist() == [[X, 2, A], [Y, 2, B]]

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
        doubled = add_inverse_triples(triples, base).tolist()
        for orig, inv in zip(doubled[: len(triples)], doubled[len(triples):]):
            assert inv[1] == orig[1] + base
            assert [inv[2], inv[1] - base, inv[0]] == orig


class TestWithInverses:
    def test_equals_the_graph_built_by_hand(self):
        ents, rels = make_records(5, 2)
        base = {"train": [Triple(A, 0, X), Triple(B, 1, Y)], "test": np.array([[Z, 0, A]])}
        g = KnowledgeGraph.with_inverses([e.name for e in ents],
                                         [e.description for e in ents], rels, base)
        by_hand = KnowledgeGraph(
            ents, rels + inverse_relation_records(rels),
            {split: add_inverse_triples(triples, 2) for split, triples in base.items()},
            num_base_relations=2,
        )
        assert g.relations == by_hand.relations
        assert g.num_base_relations == 2 and g.num_relations == 4
        assert (g.entity_names, g.entity_descriptions) == (
            by_hand.entity_names, by_hand.entity_descriptions)
        for split in SPLITS:
            assert g.triples(split).dtype == np.int64
            np.testing.assert_array_equal(g.triples(split), by_hand.triples(split))
        assert g.triples("valid").shape == (0, 3)
        assert g.tails_by_pair(Y, 3).tolist() == [B]

    def test_keeps_the_arrays_add_inverse_triples_builds(self, monkeypatch):
        built = []

        def recording(triples, num_base_relations):
            built.append(add_inverse_triples(triples, num_base_relations))
            return built[-1]

        monkeypatch.setattr("structkgc.graph.add_inverse_triples", recording)
        _, rels = make_records(3, 1)
        base = {"train": np.array([[0, 0, 1], [1, 0, 2]]), "test": [Triple(2, 0, 0)]}
        g = KnowledgeGraph.with_inverses(["a", "b", "c"], ["", "", ""], rels, base)
        assert len(built) == 2
        for split, array in zip(base, built):
            assert g.triples(split) is array
            assert not array.flags.writeable

    def test_leaves_the_base_arrays_as_they_were(self):
        _, rels = make_records(3, 1)
        train = np.array([[0, 0, 1], [1, 0, 2]], dtype=np.int64)
        g = KnowledgeGraph.with_inverses(["a", "b", "c"], ["", "", ""], rels, {"train": train})
        assert train.flags.writeable
        assert not np.shares_memory(g.triples("train"), train)
        assert train.tolist() == [[0, 0, 1], [1, 0, 2]]

    def test_refuses_a_triple_that_uses_an_inverse_id(self):
        ents, rels = make_records(3, 1)
        with pytest.raises(GraphError, match="inverse"):
            KnowledgeGraph.with_inverses(["a", "b", "c"], ["", "", ""], rels,
                                         {"train": [Triple(0, 1, 2)]})

    def test_refuses_an_unknown_split(self):
        _, rels = make_records(3, 1)
        with pytest.raises(GraphError, match="unknown splits"):
            KnowledgeGraph.with_inverses(["a", "b", "c"], ["", "", ""], rels,
                                         {"dev": [Triple(0, 0, 2)]})


    def test_is_the_one_place_in_src_that_adds_inverses(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "structkgc")
        for name in sorted(os.listdir(src)):
            if name.endswith(".py") and name != "graph.py":
                with open(os.path.join(src, name), encoding="utf-8") as f:
                    text = f.read()
                assert "add_inverse_triples" not in text, name
                assert "inverse_relation_records" not in text, name


class TestKnownTrue:
    def test_membership_in_train(self):
        g = five_entity_graph()
        assert X in g.tails_by_pair(A, R, ["train"])

    def test_absent_everywhere(self):
        g = five_entity_graph()
        assert Z not in g.tails_by_pair(A, R, ["train", "valid", "test"])

    def test_split_scoping(self):
        ents, rels = make_records(5, 1)
        g = KnowledgeGraph(ents, rels, {"test": [Triple(A, R, X)]})
        assert X not in g.tails_by_pair(A, R, ["train", "valid"])
        assert X in g.tails_by_pair(A, R, ["test"])


# every selection of splits, the empty one included, plus a reordered and a
# repeated one that must normalise to a selection above
SELECTIONS = [c for k in range(len(SPLITS) + 1) for c in combinations(SPLITS, k)]
SELECTIONS += [("test", "train"), ("valid", "train", "valid")]


def random_graph_pair(rng):
    """The same random triples (duplicates included) in both graphs."""
    n_e, n_r = int(rng.integers(1, 9)), int(rng.integers(1, 4))
    ents, rels = make_records(n_e, n_r)
    splits = {
        split: [Triple(int(rng.integers(n_e)), int(rng.integers(n_r)), int(rng.integers(n_e)))
                for _ in range(int(rng.integers(0, 25)))]
        for split in SPLITS
    }
    return KnowledgeGraph(ents, rels, splits), ReferenceGraph(ents, rels, splits)


class TestMatchesReferenceGraph:
    def test_lookups_equal_reference_sets(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            g, ref = random_graph_pair(rng)
            for splits in SELECTIONS:
                # one id past the end on each axis looks up nothing in both
                for r in range(g.num_relations + 1):
                    got = g.tails_by_relation(r, splits)
                    assert got.dtype == np.int64 and not got.flags.writeable
                    assert got.tolist() == sorted(ref.tails_by_relation(r, splits))
                    for h in range(g.num_entities + 1):
                        got = g.tails_by_pair(h, r, splits)
                        assert got.dtype == np.int64 and not got.flags.writeable
                        assert got.tolist() == sorted(ref.tails_by_pair(h, r, splits))

    def test_triples_equal_reference_row_for_row(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            g, ref = random_graph_pair(rng)
            for split in SPLITS:
                rows = g.triples(split)
                assert rows.dtype == np.int64 and not rows.flags.writeable
                assert rows.shape == (len(ref.triples(split)), 3)
                assert [tuple(t) for t in rows.tolist()] == list(ref.triples(split))
