import numpy as np
import pytest

from structkgc import autodiff as ad
from structkgc.model import Model, ModelConfig
from structkgc.structural import (
    AseKind,
    PrefixProjector,
    StructuralTable,
    ase_apply_node,
    init_embedding,
    struct_queries_node,
    struct_score_matrix_node,
    struct_scores_all_tails,
    unit_entity_table,
)


def combine(kind, h, r):
    return ase_apply_node(kind, ad.Node(h), ad.Node(r)).value


class TestAseApply:
    def test_additive(self):
        out = combine(AseKind.ADDITIVE, [1.0, 2.0], [3.0, -1.0])
        np.testing.assert_array_equal(out, [[4.0, 1.0]])

    def test_hadamard(self):
        out = combine(AseKind.HADAMARD, [2.0, 3.0], [1.0, 0.0])
        np.testing.assert_array_equal(out, [[2.0, 0.0]])

    def test_rotation_quarter_turn(self):
        out = combine(AseKind.ROTATION, [1.0, 0.0], [0.0, 1.0])
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)

    def test_rotation_preserves_norm(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(10, 8))
        r = rng.normal(size=(10, 8))
        out = combine(AseKind.ROTATION, h, r)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(h, axis=1), atol=1e-9
        )

    def test_rotation_rejects_odd_dim(self):
        with pytest.raises(ValueError, match="even"):
            StructuralTable(3, 1, 5, AseKind.ROTATION, np.random.default_rng(0))

    def test_graph_path_matches_numpy(self):
        """Evaluation's all-tail scores equal the training's score matrix."""
        rng = np.random.default_rng(1)
        for kind in AseKind:
            table = StructuralTable(11, 3, 6, kind, rng)
            table.entity_embeddings.value[4] = 0.0  # a row below the eps clamp
            for h, r in [(0, 0), (3, 5), (4, 2), (10, 1)]:
                scores = struct_scores_all_tails(table, h, r)
                mat = struct_score_matrix_node(table, [h], [r], list(range(11)))
                np.testing.assert_allclose(scores, mat.value[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", list(AseKind))
    def test_batched_queries_equal_one_query_scores(self, kind):
        """One batched query build scores exactly like one query at a time."""
        rng = np.random.default_rng(2)
        table = StructuralTable(300, 7, 64, kind, rng)
        heads = rng.integers(0, 300, size=500)
        relations = rng.integers(0, 14, size=500)
        queries = struct_queries_node(table, heads, relations).value
        unit_tails = unit_entity_table(table)
        for q, (h, r) in enumerate(zip(heads.tolist(), relations.tolist())):
            np.testing.assert_array_equal(unit_tails @ queries[q],
                                          struct_scores_all_tails(table, h, r))


def struct_score(table, head, relation, tail):
    return struct_scores_all_tails(table, head, relation)[tail]


class TestStructScore:
    def _table(self, ents, rels, kind=AseKind.ADDITIVE):
        t = StructuralTable(len(ents), len(rels), len(ents[0]), kind,
                            np.random.default_rng(0))
        t.entity_embeddings.value = np.array(ents, dtype=np.float64)
        t.relation_embeddings.value = np.array(
            rels + rels, dtype=np.float64
        )  # mirror base rows into the inverse half
        return t

    def test_exact_match_scores_one(self):
        table = self._table([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0]])
        assert struct_score(table, 0, 0, 1) == pytest.approx(1.0)

    def test_orthogonal_scores_zero(self):
        table = self._table([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0]])
        assert struct_score(table, 0, 0, 1) == pytest.approx(0.0)

    def test_hand_case(self):
        table = self._table([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0]])
        # combine([1,0],[0,1]) = [1,1]; cos([1,1],[1,1]) = 1
        assert struct_score(table, 0, 0, 1) == pytest.approx(1.0)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for kind in AseKind:
            table = StructuralTable(12, 3, 8, kind, rng)
            table.entity_embeddings.value = rng.normal(size=(12, 8)) * 10
            table.relation_embeddings.value = rng.normal(size=(6, 8)) * 10
            for _ in range(50):
                s = struct_score(
                    table,
                    int(rng.integers(0, 12)), int(rng.integers(0, 6)),
                    int(rng.integers(0, 12)),
                )
                assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12

    def test_planted_additive_argmax(self):
        rng = np.random.default_rng(3)
        dim = 16
        ents = rng.normal(size=(20, dim))
        rels = rng.normal(size=(2, dim))
        ents[5] = ents[2] + rels[0]  # plant E_t = E_h + E_r exactly
        table = StructuralTable(20, 2, dim, AseKind.ADDITIVE, rng)
        table.entity_embeddings.value = ents
        table.relation_embeddings.value = np.vstack([rels, -rels])
        assert struct_score(table, 2, 0, 5) == pytest.approx(1.0)
        scores = struct_scores_all_tails(table, 2, 0)
        assert int(np.argmax(scores)) == 5

    def test_all_tails_matches_single_scores(self):
        rng = np.random.default_rng(4)
        table = StructuralTable(9, 2, 6, AseKind.HADAMARD, rng)
        scores = struct_scores_all_tails(table, 3, 1)
        e = table.entity_embeddings.value
        query = e[3] * table.relation_embeddings.value[1]
        for t in range(9):
            cos = query @ e[t] / (np.linalg.norm(query) * np.linalg.norm(e[t]))
            assert scores[t] == pytest.approx(cos, abs=1e-12)

    def test_score_matrix_node_matches_numpy(self):
        rng = np.random.default_rng(5)
        table = StructuralTable(10, 2, 8, AseKind.ADDITIVE, rng)
        heads = [0, 3, 7]
        rels = [1, 0, 2]
        tails = [2, 5, 9]
        mat = struct_score_matrix_node(table, heads, rels, tails)
        for q in range(3):
            for j in range(3):
                assert mat.value[q, j] == pytest.approx(
                    struct_score(table, heads[q], rels[q], tails[j]),
                    abs=1e-12,
                )


def blocks(prefix, d):
    """The key and value arrays that an attention sublayer of width ``d``
    reads from a projector's (node, start) prefix."""
    node, start = prefix
    return node.value[:, start:start + d], node.value[:, start + d:start + 2 * d]


class TestPrefixProjector:
    def test_every_layer_reads_one_projection_node(self):
        proj = PrefixProjector(3, 3, 4, np.random.default_rng(0))
        vecs = ad.Node(np.ones((2, 3)))
        prefixes = proj.project(vecs)
        (node,) = {id(node): node for node, _ in prefixes}.values()
        assert node._parents == (vecs, proj.weight) and node.value.shape == (2, 24)
        assert [start for _, start in prefixes] == [0, 8, 16]

    def test_zero_weight_gives_zero_prefixes(self):
        proj = PrefixProjector(3, 2, 4, np.random.default_rng(0))
        proj.weight.value = np.zeros_like(proj.weight.value)
        prefixes = proj.project(ad.Node([[1.0, -2.0, 3.0]]))
        assert len(prefixes) == 2
        for prefix in prefixes:
            for block in blocks(prefix, 4):
                np.testing.assert_array_equal(block, np.zeros((1, 4)))

    def test_hand_layout(self):
        # w=1, l=1, d=2, weight [[1,2,3,4]], input [2] -> key [2,4], value [6,8]
        proj = PrefixProjector(1, 1, 2, np.random.default_rng(0))
        proj.weight.value = np.array([[1.0, 2.0, 3.0, 4.0]])
        (prefix,) = proj.project(ad.Node([[2.0]]))
        key, value = blocks(prefix, 2)
        np.testing.assert_array_equal(key, [[2.0, 4.0]])
        np.testing.assert_array_equal(value, [[6.0, 8.0]])

    def test_identity_slices_recover_input(self):
        # place coordinate i of the input at key position i of layer 0
        w, layers, d = 3, 2, 3
        proj = PrefixProjector(w, layers, d, np.random.default_rng(0))
        weight = np.zeros((w, 2 * layers * d))
        for i in range(w):
            weight[i, i] = 1.0  # layer 0 key block occupies columns 0..d-1
        proj.weight.value = weight
        vec = np.array([[0.5, -1.5, 2.5]])
        prefixes = proj.project(ad.Node(vec))
        (key0, value0), (key1, _) = (blocks(prefix, d) for prefix in prefixes)
        np.testing.assert_allclose(key0, vec)
        np.testing.assert_array_equal(value0, np.zeros((1, d)))
        np.testing.assert_array_equal(key1, np.zeros((1, d)))

    def test_dim_mismatch(self):
        proj = PrefixProjector(3, 1, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="struct dim"):
            proj.project(ad.Node([[1.0, 2.0]]))


@pytest.mark.parametrize("kind", list(AseKind))
def test_hr_prefixes_project_the_tables_combine(kind):
    model = Model(ModelConfig(num_entities=7, num_base_relations=2, struct_dim=6,
                              layers=2, hidden_dim=8, heads=2, max_len=8,
                              vocab_size=12, ase_kind=kind), seed=3)
    heads, relations = [0, 4, 6], [1, 3, 0]
    e_h = ad.gather_rows(model.struct.entity_embeddings, heads)
    e_r = ad.gather_rows(model.struct.relation_embeddings, relations)
    want = model.hr_projector.project(ase_apply_node(kind, e_h, e_r))
    got = model.hr_prefixes(heads, relations)
    assert len(got) == len(want) == 2
    for (node, start), (node_want, start_want) in zip(got, want):
        assert start == start_want
        np.testing.assert_array_equal(node.value, node_want.value)


def test_init_embedding_bounds():
    rng = np.random.default_rng(6)
    emb = init_embedding(rng, 100, 64)
    bound = 0.5 / np.sqrt(64)
    assert np.all(np.abs(emb) <= bound)
    assert emb.std() > 0


def test_safe_cosine_handles_zero_vectors():
    table = StructuralTable(2, 1, 4, AseKind.ADDITIVE, np.random.default_rng(7))
    table.entity_embeddings.value = np.array([[1.0] * 4, [0.0] * 4])
    assert struct_score(table, 0, 0, 1) == 0.0
