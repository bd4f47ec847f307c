import numpy as np
import pytest

from structkgc.graph import EntityRecord, KnowledgeGraph, RelationRecord, Triple
from structkgc.negatives import (
    PREFILTER_MAX_SCALE,
    UNIT_NORM_TOL,
    MomentumEncoder,
    MomentumQueue,
    in_batch_mask,
    member_logits,
    mix_hard_negatives,
    sample_intra_relation,
)
from structkgc.model import Model, ModelConfig
from structkgc.structural import PrefixProjector
from structkgc.text import TextEncoder

from graph_reference import ReferenceGraph, entity_records


def unit(vec):
    v = np.asarray(vec, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_units(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestMomentumQueue:
    def test_fifo_eviction(self):
        q = MomentumQueue(2, 2)
        a, b, c = unit([1, 0]), unit([0, 1]), unit([1, 1])
        for v in (a, b, c):
            q.push(v)
        np.testing.assert_allclose(q.features(), np.stack([b, c]))

    def test_push_into_empty(self):
        q = MomentumQueue(5, 3)
        q.push(unit([1, 2, 3]))
        assert len(q) == 1

    def test_thousand_pushes_match_list_slicing_oracle(self):
        rng = np.random.default_rng(0)
        q = MomentumQueue(100, 4)
        pushed = []
        for _ in range(1000):
            v = unit(rng.normal(size=4))
            pushed.append(v)
            q.push(v)
        assert len(q) == 100
        np.testing.assert_array_equal(q.features(), np.stack(pushed[-100:]))

    def test_non_unit_rejected(self):
        q = MomentumQueue(4, 2)
        with pytest.raises(ValueError, match="unit norm"):
            q.push(np.array([1.0, 1.0]))

    def test_nan_row_rejected(self):
        q = MomentumQueue(4, 2)
        with pytest.raises(ValueError, match="unit norm"):
            q.push(np.array([[1.0, 0.0], [np.nan, 0.0]]))
        assert len(q) == 0

    def test_slightly_off_unit_accepted(self):
        q = MomentumQueue(4, 2)
        q.push(unit([3, 4]) * (1 + 5e-5))
        assert len(q) == 1


class TestHardestK:
    def test_aligned_vector_wins(self):
        q = MomentumQueue(4, 2)
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        q.push(e1)
        q.push(e2)
        out = q.hardest(np.array([1.0, 0.0]), tau=0.05, k=1)
        np.testing.assert_array_equal(out, e1.reshape(1, 2))

    def test_k_equals_size_returns_full_sorted(self):
        rng = np.random.default_rng(1)
        q = MomentumQueue(8, 3)
        feats = random_units(rng, 8, 3)
        q.push(feats)
        h = unit(rng.normal(size=3))
        out = q.hardest(h, tau=0.1, k=8)
        logits = out @ h
        assert np.all(np.diff(logits) <= 1e-12)
        assert out.shape == (8, 3)

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(2)
        q = MomentumQueue(64, 6)
        feats = random_units(rng, 50, 6)
        q.push(feats)
        h = unit(rng.normal(size=6))
        out = q.hardest(h, tau=0.07, k=8)
        order = np.argsort(-(feats @ h), kind="stable")
        np.testing.assert_allclose(out, feats[order[:8]])

    def test_selected_set_independent_of_tau(self):
        rng = np.random.default_rng(3)
        q = MomentumQueue(32, 4)
        q.push(random_units(rng, 20, 4))
        h = unit(rng.normal(size=4))
        sets = []
        for tau in (0.01, 0.05, 1.0):
            out = q.hardest(h, tau=tau, k=5)
            sets.append({tuple(np.round(row, 12)) for row in out})
        assert sets[0] == sets[1] == sets[2]

    def test_smaller_queue_returns_all_sorted(self):
        rng = np.random.default_rng(4)
        q = MomentumQueue(16, 3)
        q.push(random_units(rng, 3, 3))
        out = q.hardest(unit(rng.normal(size=3)), tau=0.05, k=10)
        assert out.shape == (3, 3)

    def test_ties_prefer_newer(self):
        q = MomentumQueue(4, 2)
        v = unit([1.0, 1.0])
        q.push(v)
        q.push(np.array([1.0, 0.0]))
        q.push(v)  # same logit as the first member, but newer
        out = q.hardest(v, tau=0.05, k=3)
        # both copies of v sort first; the orthogonal-ish one last
        np.testing.assert_allclose(out[0], v)
        np.testing.assert_allclose(out[1], v)


class TestMixHardNegatives:
    def test_symmetric_mix(self):
        rng = FixedLam(0.5)
        out, fallback = mix_hard_negatives(
            np.array([[1.0, 0.0], [0.0, 1.0]]), 1, rng
        )
        assert not fallback
        np.testing.assert_allclose(out, [[np.sqrt(0.5), np.sqrt(0.5)]], atol=1e-12)

    def test_lambda_one_returns_first_parent(self):
        rng = FixedLam(1.0)
        out, _ = mix_hard_negatives(np.array([[1.0, 0.0], [0.0, 1.0]]), 1, rng)
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_statistical_span_and_norms(self):
        rng = np.random.default_rng(5)
        pair = np.array([[1.0, 0.0], [0.0, 1.0]])
        out, fallback = mix_hard_negatives(pair, 10_000, rng)
        assert not fallback
        norms = np.linalg.norm(out, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)
        angles = np.degrees(np.arctan2(out[:, 1], out[:, 0]))
        assert angles.min() < 5.0 and angles.max() > 85.0
        assert np.all(angles > 0.0) and np.all(angles < 90.0)

    def test_outputs_in_convex_cone_of_parents(self):
        rng = np.random.default_rng(6)
        parents = random_units(rng, 2, 3)
        out, _ = mix_hard_negatives(parents, 64, rng)
        for row in out:
            # two independent parents: the expansion is unique
            coef, *_ = np.linalg.lstsq(parents.T, row, rcond=None)
            np.testing.assert_allclose(parents.T @ coef, row, atol=1e-9)
            assert coef.min() > -1e-9

    def test_single_member_falls_back(self):
        rng = np.random.default_rng(7)
        single = np.array([[1.0, 0.0]])
        out, fallback = mix_hard_negatives(single, 5, rng)
        assert fallback
        np.testing.assert_array_equal(out, single)


class FixedLam:
    """Deterministic stand-in RNG for the mixing coefficient: pair codes
    0, 1, 2, ... and a constant lam.  It records each call it serves."""

    def __init__(self, lam):
        self.lam = lam
        self.calls = []

    def integers(self, low, high, size):
        self.calls.append(("integers", low, high, size))
        assert size <= high
        return np.arange(size)

    def uniform(self, low, high, size):
        self.calls.append(("uniform", low, high, size))
        return np.full(size, self.lam)


A, B, X, Y, Z = range(5)
R = 0


def irns_graph():
    ents = [EntityRecord(f"e{i}", "", i) for i in range(5)]
    rels = [RelationRecord("r", "", 0), RelationRecord("s", "", 1)]
    train = [Triple(A, R, X), Triple(A, R, Y), Triple(B, R, Z)]
    return KnowledgeGraph(ents, rels, {"train": train})


class TestIntraRelationSampling:
    def test_set_difference(self):
        g = irns_graph()
        rng = np.random.default_rng(8)
        out = sample_intra_relation(g, A, R, 3, rng)
        assert out == [Z]

    def test_never_returns_true_tail(self):
        g = irns_graph()
        rng = np.random.default_rng(9)
        for _ in range(50):
            out = sample_intra_relation(g, B, R, 1, rng)
            assert out and out[0] in {X, Y}

    def test_fallback_when_difference_empty(self):
        ents = [EntityRecord(f"e{i}", "", i) for i in range(4)]
        rels = [RelationRecord("r", "", 0)]
        g = KnowledgeGraph(ents, rels, {"train": [Triple(0, 0, 1)]})
        rng = np.random.default_rng(10)
        for _ in range(20):
            out = sample_intra_relation(g, 0, 0, 2, rng)
            assert out
            assert 1 not in out  # the only true tail
            assert not any(t in g.tails_by_pair(0, 0, ["train"]) for t in out)

    def test_soundness_over_many_draws(self):
        rng = np.random.default_rng(11)
        ents = [EntityRecord(f"e{i}", "", i) for i in range(12)]
        rels = [RelationRecord(f"r{i}", "", i) for i in range(3)]
        train = [
            Triple(int(rng.integers(0, 12)), int(rng.integers(0, 3)), int(rng.integers(0, 12)))
            for _ in range(40)
        ]
        g = KnowledgeGraph(ents, rels, {"train": train})
        for h, r, _ in g.triples("train").tolist():
            for t in sample_intra_relation(g, h, r, 3, rng):
                assert t not in g.tails_by_pair(h, r, ["train"])


class TestInBatchMask:
    def test_diagonal_masked(self):
        g = irns_graph()
        queries = [(A, R), (B, R)]
        tails = [X, Z]
        mask = in_batch_mask(queries, tails, g)
        assert mask[0, 0] and mask[1, 1]

    def test_duplicate_true_triple_masked_off_diagonal(self):
        # self-loop style batch: tail of row 0 is also true for row 1's query
        ents = [EntityRecord("dress", "", 0), EntityRecord("shirt", "", 1),
                EntityRecord("coat", "", 2)]
        rels = [RelationRecord("style name", "", 0)]
        train = [Triple(0, 0, 0), Triple(1, 0, 0), Triple(1, 0, 2)]
        g = KnowledgeGraph(ents, rels, {"train": train})
        mask = in_batch_mask([(0, 0), (1, 0)], [0, 2], g)
        assert mask[1, 0]  # (shirt, style, dress) is train-true
        assert not mask[0, 1]

    def test_pair_with_no_train_tails_masks_only_equal_tails(self):
        ents = [EntityRecord(f"e{i}", "", i) for i in range(4)]
        rels = [RelationRecord("r0", "", 0)]
        g = KnowledgeGraph(ents, rels, {"train": [Triple(0, 0, 1), Triple(0, 0, 3)]})
        assert len(g.tails_by_pair(2, 0, ("train",))) == 0
        mask = in_batch_mask([(2, 0), (0, 0), (2, 0)], [1, 3, 1], g)
        np.testing.assert_array_equal(mask, [[True, False, True],
                                             [True, True, True],
                                             [True, False, True]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        ents = [EntityRecord(f"e{i}", "", i) for i in range(8)]
        rels = [RelationRecord(f"r{i}", "", i) for i in range(2)]
        train = [
            Triple(int(rng.integers(0, 8)), int(rng.integers(0, 2)), int(rng.integers(0, 8)))
            for _ in range(25)
        ]
        g = KnowledgeGraph(ents, rels, {"train": train})
        batch = g.triples("train")[rng.integers(0, len(g.triples("train")), 6)].tolist()
        queries = [(h, r) for h, r, _ in batch]
        tails = [t for _, _, t in batch]
        mask = in_batch_mask(queries, tails, g)
        known = set(train)
        for q in range(6):
            for j in range(6):
                brute = tails[j] == tails[q] or (*queries[q], tails[j]) in known
                assert mask[q, j] == brute


class TestMomentumEncoder:
    def _setup(self):
        cfg = ModelConfig(num_entities=5, num_base_relations=1, layers=1,
                          hidden_dim=8, heads=2, max_len=8, vocab_size=12)
        rng = np.random.default_rng(13)
        tail = TextEncoder(cfg, rng, name="tail")
        proj = PrefixProjector(4, 1, 8, rng, name="tail_prefix")
        from structkgc.autodiff import Node
        table = Node(rng.normal(size=(5, 4)))
        return tail, proj, table

    def test_initial_copy_matches_online(self):
        tail, proj, table = self._setup()
        mom = MomentumEncoder(tail, proj, table, momentum=0.999)
        tokens = [[2, 5, 3], [2, 7, 3]]
        np.testing.assert_allclose(
            mom.encode_tails(tokens, [0, 1]),
            np.stack([
                tail.encode([t], proj.project(_gather(table, i))).value[0]
                for t, i in zip(tokens, [0, 1])
            ]),
        )

    def test_ema_update_exact(self):
        tail, proj, table = self._setup()
        mom = MomentumEncoder(tail, proj, table, momentum=0.999)
        rng = np.random.default_rng(14)
        before = {k: v.value.copy() for k, v in mom.encoder.parameters().items()}
        proj_before = mom.projector.weight.value.copy()
        table_before = mom.entity_table.value.copy()
        # pretend an optimizer step happened on the online weights
        for node in tail.parameters().values():
            node.value = node.value + rng.normal(size=node.value.shape) * 0.01
        proj.weight.value = proj.weight.value + 0.01
        table.value = table.value + 0.02
        mom.ema_update()
        m = 0.999
        for key, node in mom.encoder.parameters().items():
            expected = m * before[key] + (1 - m) * tail.parameters()[key].value
            assert np.abs(node.value - expected).max() == 0.0
        assert np.abs(
            mom.projector.weight.value - (m * proj_before + (1 - m) * proj.weight.value)
        ).max() == 0.0
        assert np.abs(
            mom.entity_table.value - (m * table_before + (1 - m) * table.value)
        ).max() == 0.0

    @pytest.mark.parametrize("use_ase", [True, False])
    def test_fresh_shadow_matches_model_tail_path(self, use_ase):
        model = Model(ModelConfig(
            num_entities=6, num_base_relations=2, struct_dim=4, layers=2,
            hidden_dim=8, heads=2, max_len=8, vocab_size=12, use_ase=use_ase,
        ), seed=3)
        mom = MomentumEncoder(model.tail_encoder, model.tail_projector,
                              model.struct.entity_embeddings)
        tokens = [[2, 5, 3], [2, 7, 9, 3], [2, 5, 3]]
        tails = [4, 0, 1]
        np.testing.assert_array_equal(
            mom.encode_tails(tokens, tails), model.encode_tails(tokens, tails).value
        )

    def test_no_projector_shadows_no_entity_table(self):
        model = Model(ModelConfig(
            num_entities=6, num_base_relations=2, struct_dim=4, layers=2,
            hidden_dim=8, heads=2, max_len=8, vocab_size=12, use_ase=False,
        ), seed=5)
        mom = MomentumEncoder(model.tail_encoder, model.tail_projector,
                              model.struct.entity_embeddings)
        assert mom.entity_table is None
        table = model.struct.entity_embeddings
        assert all(online is not table for _, online in mom._pairs)
        assert len(mom._pairs) == len(model.tail_encoder.parameters())
        tokens = [[2, 5, 3], [2, 7, 9, 3]]
        mom.ema_update()
        np.testing.assert_array_equal(
            mom.encode_tails(tokens, [1, 4]), model.encode_tails(tokens, [1, 4]).value
        )


def _gather(table, idx):
    from structkgc import autodiff as ad
    return ad.gather_rows(table, [idx])


# ---------------------------------------------------------------------------
# Equivalence with the implementations the array code replaced
# ---------------------------------------------------------------------------

def full_sort_hardest(queue, query, tau, k):
    """Reference selection with ``member_logits``: a full lexsort of every
    member by (-logit, -position), oldest first."""
    mat = queue.features()
    logits = member_logits(mat, np.asarray(query, dtype=np.float64).ravel(), tau)
    order = np.lexsort((-np.arange(len(mat)), -logits))
    return mat[order[: min(k, len(mat))]]


def assert_hardest_matches_full_sort(queue, query, tau, ks):
    for k in ks:
        out = queue.hardest(query, tau, k)
        want = full_sort_hardest(queue, query, tau, k)
        assert out.shape == want.shape
        assert np.array_equal(out, want), f"k={k}"


class TestHardestMatchesFullSort:
    def test_ties_straddle_place_k(self):
        # one-hot rows score exactly: a and b tie at the top, c and d below;
        # five tied members straddle every k from 1 to 4
        a, b, c, d = np.eye(4)
        q = MomentumQueue(12, 4)
        q.push(np.stack([a, c, b, d, a, b, c, a]))
        query = np.array([0.5, 0.5, 0.25, 0.0])
        assert_hardest_matches_full_sort(q, query, 0.05, range(0, 10))
        np.testing.assert_array_equal(q.hardest(query, 0.05, 3), np.stack([a, b, a]))

    def test_ties_straddle_place_k_after_wrap(self):
        a, b, c = np.eye(3)
        q = MomentumQueue(5, 3)
        q.push(np.stack([c, a, b, c, b, a, c, a]))  # wraps; a and b tie
        assert_hardest_matches_full_sort(q, np.array([0.5, 0.5, 0.0]), 0.1, range(0, 7))

    def test_partly_filled_ring(self):
        rng = np.random.default_rng(20)
        q = MomentumQueue(50, 8)
        q.push(random_units(rng, 23, 8))
        assert len(q) == 23
        assert_hardest_matches_full_sort(
            q, unit(rng.normal(size=8)), 0.07, (1, 2, 7, 22, 23, 24, 50))

    def test_unaligned_pushes_wrap_around(self):
        rng = np.random.default_rng(21)
        q = MomentumQueue(37, 8)
        pushed = []
        for _ in range(60):
            rows = random_units(rng, int(rng.integers(1, 21)), 8)
            if pushed and rng.random() < 0.3:  # an earlier row again: equal logits
                rows[0] = pushed[int(rng.integers(len(pushed)))]
            pushed.extend(rows)
            q.push(rows)
            np.testing.assert_array_equal(q.features(), np.stack(pushed[-37:]))
            assert_hardest_matches_full_sort(
                q, unit(rng.normal(size=8)), 0.05, (1, 5, 36, 37, 40))

    def test_push_larger_than_capacity(self):
        rng = np.random.default_rng(22)
        q = MomentumQueue(10, 6)
        q.push(random_units(rng, 3, 6))
        big = random_units(rng, 27, 6)
        q.push(big)
        assert len(q) == 10
        np.testing.assert_array_equal(q.features(), big[-10:])
        assert_hardest_matches_full_sort(q, unit(rng.normal(size=6)), 0.05, (1, 4, 10))
        more = random_units(rng, 4, 6)
        q.push(more)
        np.testing.assert_array_equal(q.features(), np.concatenate([big[-6:], more]))
        assert_hardest_matches_full_sort(q, unit(rng.normal(size=6)), 0.05, (1, 4, 10))

    def test_nan_query_sorts_like_full_sort(self):
        rng = np.random.default_rng(28)
        q = MomentumQueue(9, 4)
        q.push(random_units(rng, 9, 4))
        assert_hardest_matches_full_sort(q, np.array([np.nan, 1.0, 0.0, 0.0]), 0.05, (1, 3, 9))

    def test_features_is_a_copy(self):
        q = MomentumQueue(3, 2)
        q.push(unit([1, 0]))
        q.features()[0] = 0.0
        np.testing.assert_array_equal(q.features(), [[1.0, 0.0]])


def gemv_hardest(queue, query, tau, k, mat=None):
    """Reference: ``hardest`` as it was before the float32 prefilter.  One
    float64 gemv scores the queue, oldest first; the members at or above
    the k-th logit are lexsorted by (-logit, -position)."""
    mat = queue.features() if mat is None else mat
    n = len(mat)
    logits = mat @ np.asarray(query, dtype=np.float64).ravel() / tau
    members = None
    if 0 < k < n:
        kth = np.partition(logits, n - k)[n - k]
        members = np.flatnonzero(logits >= kth)
    if members is None or len(members) < k:
        members = np.arange(n)
    order = members[np.lexsort((-members, -logits[members]))]
    return mat[order[: min(k, n)]]


def documented_delta(dim, query, tau):
    """delta as ``MomentumQueue.hardest`` documents it, before its slack."""
    u, lam, big_lam = 2.0 ** -24, 2.0 ** -126, 2.0 ** -1022
    x = np.asarray(query, dtype=np.float64) / tau
    big_x = np.sqrt(dim) * np.abs(x).max()
    norm = 1 + 2 * UNIT_NORM_TOL
    gamma = (dim + 4) * u / (1 - (dim + 4) * u)
    return (gamma * norm * big_x + 8 * dim * lam * (norm + big_x + 1)
            + 8 * dim * big_lam * (1 + 1 / tau))


def push_in_chunks(queue, rng, total):
    """Push ``total`` random unit rows in chunks of 1 to 2,000 rows."""
    while total > 0:
        size = min(total, int(rng.integers(1, 2000)))
        queue.push(random_units(rng, size, queue.dim))
        total -= size


class TestHardestMatchesGemv:
    @pytest.mark.parametrize("seed", range(20))
    def test_paper_scale_queue(self, seed):
        rng = np.random.default_rng([seed, 40])
        cap, dim = 15_360, 64
        tau = (0.05, 0.02, 1.0)[seed % 3]
        q = MomentumQueue(cap, dim)
        fill = int(rng.integers(200, cap - 200))
        stages = [
            ("partly filled", lambda: push_in_chunks(q, rng, fill)),
            ("wrapped", lambda: push_in_chunks(q, rng, cap - fill + int(rng.integers(1, cap)))),
            ("push larger than capacity",
             lambda: q.push(random_units(rng, cap + int(rng.integers(1, 999)), dim))),
        ]
        for stage, fill_queue in stages:
            fill_queue()
            mat = q.features()
            n = len(mat)
            assert (n < cap) == (stage == "partly filled")
            for _ in range(2):
                query = unit(rng.normal(size=dim)) * rng.uniform(0.5, 2.0)
                for k in (1, 2, n - 1, 192):
                    out = q.hardest(query, tau, k)
                    assert out.tobytes() == gemv_hardest(q, query, tau, k, mat).tobytes(), (stage, k)


class TestPrefilterBound:
    def adversarial_queue(self, rng, dim):
        """Rows at norm 1 +- 0.99e-4 and rows whose other components sit
        around and below the float32 subnormal range."""
        near_one = random_units(rng, 200, dim)
        near_one[:100] *= 1 + 0.99e-4
        near_one[100:] *= 1 - 0.99e-4
        tiny = random_units(rng, 200, dim)
        tiny[:, 1:] *= 10.0 ** rng.uniform(-47, -36, size=(200, dim - 1))
        tiny /= np.linalg.norm(tiny, axis=1, keepdims=True)
        rows = np.concatenate([near_one, tiny, random_units(rng, 100, dim)])
        q = MomentumQueue(len(rows), dim)
        q.push(rows)
        return q

    def test_scores_within_delta_of_logits(self):
        rng = np.random.default_rng(41)
        dim = 64
        q = self.adversarial_queue(rng, dim)
        mat = q.features()  # a full ring pushed from slot 0: in slot order
        directions = [unit(rng.normal(size=dim)), np.eye(dim)[0],
                      unit(np.r_[1.0, 10.0 ** rng.uniform(-45, -38, size=dim - 1)])]
        for direction in directions:
            for norm in 10.0 ** np.arange(-30, 31, 5):
                for tau in (1.0, 0.05):
                    query = direction * norm
                    scores, delta = q._scores_and_delta(query, tau)
                    logits = member_logits(mat, query, tau)
                    err = np.abs(scores.astype(np.float64) - logits)
                    assert np.isfinite(delta) and np.all(err <= delta), (norm, tau, err.max(), delta)

    def test_delta_is_the_documented_bound(self):
        rng = np.random.default_rng(44)
        for dim in (1, 8, 64, 768):
            q = MomentumQueue(4, dim)
            q.push(random_units(rng, 4, dim))
            for norm in (0.0, 1e-300, 1e-30, 1.0, 1e30):
                for tau in (1e-300, 0.05, 1.0, 1e300):
                    query = unit(rng.normal(size=dim)) * norm
                    with np.errstate(over="ignore"):
                        if not np.sqrt(dim) * np.abs(query / tau).max() <= PREFILTER_MAX_SCALE:
                            assert q._scores_and_delta(query, tau) is None
                            continue
                    _, delta = q._scores_and_delta(query, tau)
                    want = documented_delta(dim, query, tau)
                    assert want <= delta <= want * (1 + 2.0 ** -19), (dim, norm, tau)

    def test_planted_near_ties_match_full_sort(self):
        # 60 rows whose logits lie within delta of each other, so their
        # float32 scores are out of float64 order, and 16 rows from 0.25
        # to 4 delta below them that straddle T - 2 delta
        rng = np.random.default_rng(42)
        dim, tau = 64, 0.05
        query = unit(rng.normal(size=dim))
        side = unit(rng.normal(size=dim) - query * (query @ rng.normal(size=dim)))
        side = unit(side - query * (query @ side))

        def at_cos(c):
            return c * query + np.sqrt(1 - c * c) * side

        cluster = at_cos(0.9) + 2e-7 * rng.normal(size=(60, dim))
        cluster /= np.linalg.norm(cluster, axis=1, keepdims=True)
        cluster[::7] = cluster[1]  # equal rows: equal logits, newer first
        q = MomentumQueue(4000, dim)
        q.push(random_units(rng, 3000, dim))
        _, delta = q._scores_and_delta(query, tau)
        straddle = np.stack([at_cos(0.9 - j * delta * tau / 4) for j in range(1, 17)])
        planted = np.concatenate([cluster, straddle])
        for part in np.array_split(planted[rng.permutation(len(planted))], 5):
            q.push(part)
            q.push(random_units(rng, int(rng.integers(1, 50)), dim))
        scores, delta = q._scores_and_delta(query, tau)
        logits = member_logits(q.features(), query, tau)  # slot order: no wrap yet
        by_logit = np.lexsort((-np.arange(len(q)), -logits))
        assert np.ptp(logits[by_logit[:60]]) < delta
        # for these k the rows scoring at least the k-th score miss one of
        # the k largest logits, so a threshold at T alone would lose it
        lost = [k for k in range(1, 61) if scores[by_logit[:k]].min() < np.sort(scores)[-k]]
        assert len(lost) >= 5
        n = len(q)
        for k in (*range(1, 62), 70, 76, 77, 200, n - 1, n):
            out = q.hardest(query, tau, k)
            assert out.tobytes() == full_sort_hardest(q, query, tau, k).tobytes(), k

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "huge"])
    def test_unproven_queries_take_the_full_path(self, bad):
        rng = np.random.default_rng(43)
        q = MomentumQueue(64, 8)
        q.push(random_units(rng, 50, 8))
        query = unit(rng.normal(size=8))
        if bad == "huge":
            query = query * 1e300
        else:
            query[3] = float(bad)
        assert q._scores_and_delta(query, 0.05) is None
        with np.errstate(invalid="ignore"):
            for k in (1, 3, 49, 50, 60):
                out = q.hardest(query, 0.05, k)
                assert out.tobytes() == full_sort_hardest(q, query, 0.05, k).tobytes(), k

    def test_scale_limit(self):
        q = MomentumQueue(8, 4)
        q.push(np.eye(4))
        edge = np.array([PREFILTER_MAX_SCALE / 2, 0.0, 0.0, 0.0])  # X = sqrt(4) * |x_0|
        assert q._scores_and_delta(edge, 1.0) is not None
        assert q._scores_and_delta(np.nextafter(edge, np.inf), 1.0) is None
        for query in (edge, edge * 2):  # the prefilter, then the full path
            np.testing.assert_array_equal(q.hardest(query, 1.0, 2), np.eye(4)[[0, 3]])


class TestMemberLogits:
    def test_independent_of_the_other_rows(self):
        rng = np.random.default_rng(45)
        mat = random_units(rng, 2_001, 64)
        query = unit(rng.normal(size=64)) * 3.7
        whole = member_logits(mat, query, 0.05)
        for size in (*range(1, 10), 193):
            for _ in range(20):
                subset = rng.choice(len(mat), size=size, replace=False)
                part = member_logits(mat[subset], query, 0.05)
                assert part.tobytes() == whole[subset].tobytes(), size
        for stop in range(1, 9):  # windows of every length modulo 4
            assert member_logits(mat[:stop], query, 0.05).tobytes() == whole[:stop].tobytes()

    def test_equal_rows_get_equal_logits(self):
        rng = np.random.default_rng(46)
        for n in (5, 6, 7, 9, 10, 11, 15_359):
            mat = random_units(rng, n, 64)
            for tail in range(1, n % 4 + 1):  # each of the last n % 4 rows
                mat[n - tail] = mat[0]
                query = unit(rng.normal(size=64))
                logits = member_logits(mat, query, 0.05)
                assert logits[n - tail] == logits[0], (n, tail)

    def test_hardest_keeps_equal_rows_together_newest_first(self):
        rng = np.random.default_rng(47)
        q = MomentumQueue(15_359, 64)
        rows = random_units(rng, 15_359, 64)
        query = unit(rng.normal(size=64))
        best = int(np.argmax(rows @ query))
        rows[-3:] = rows[best]  # the best row again, at the end of the window
        q.push(rows)
        out = q.hardest(query, 0.05, 5)
        np.testing.assert_array_equal(out[:4], np.repeat(rows[best][None], 4, axis=0))
        assert out.tobytes() == full_sort_hardest(q, query, 0.05, 5).tobytes()


class TestMixDrawOrder:
    def test_never_pairs_a_member_with_itself(self):
        # one-hot parents: a row mixed from i != j has exactly two non-zeros
        rng = np.random.default_rng(23)
        out, fallback = mix_hard_negatives(np.eye(5), 5000, rng)
        assert not fallback
        support = out != 0.0
        assert np.all(support.sum(axis=1) == 2)
        pairs = {tuple(np.flatnonzero(row)) for row in support}
        assert len(pairs) == 10  # every unordered pair is drawn

    def test_pair_codes_decode_to_ordered_pairs(self):
        # FixedLam draws pair codes 0..5; lam = 0.75 makes p_i the larger part
        rng = FixedLam(0.75)
        out, _ = mix_hard_negatives(np.eye(3), 6, rng)
        assert rng.calls == [("integers", 0, 6, 6), ("uniform", 0.0, 1.0, 6)]
        first = out.argmax(axis=1)
        second = np.where(out > 0.0, out, np.inf).argmin(axis=1)
        assert list(zip(first, second)) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    @pytest.mark.parametrize("n", [2, 3, 17, 192])
    @pytest.mark.parametrize("count", [0, 1, 64])
    def test_matches_the_choice_draws(self, n, count):
        for seed in range(5):
            parents = random_units(np.random.default_rng([seed, n]), n, 8)
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):  # later calls start from the state the first left
                out, fallback = mix_hard_negatives(parents, count, rng)
                want, want_fallback = choice_mix_hard_negatives(parents, count, rng_ref)
                assert out.shape == (count, 8) and fallback == want_fallback
                assert np.array_equal(out, want)
                assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_repeats_exactly_for_a_fixed_seed(self):
        parents = random_units(np.random.default_rng(24), 16, 8)
        rng_a, rng_b = np.random.default_rng(25), np.random.default_rng(25)
        out_a, _ = mix_hard_negatives(parents, 64, rng_a)
        out_b, _ = mix_hard_negatives(parents, 64, rng_b)
        np.testing.assert_array_equal(out_a, out_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def choice_mix_hard_negatives(hardest, count, rng):
    """Reference: the mixer as it drew before, with ``rng.choice`` for the
    pairs and a ``uniform`` with array bounds for the coefficients."""
    hardest = np.atleast_2d(np.asarray(hardest, dtype=np.float64))
    n = hardest.shape[0]
    if n < 2:
        return hardest.copy(), True
    pairs = rng.choice(n * (n - 1), size=count, replace=True)
    i, j = np.divmod(pairs, n - 1)
    j += j >= i
    lam = np.reshape(rng.uniform(np.zeros(count), np.ones(count)), (-1, 1))
    mixed = lam * hardest[i] + (1.0 - lam) * hardest[j]
    norms = np.linalg.norm(mixed, axis=1, keepdims=True)
    return mixed / np.maximum(norms, 1e-12), False


def sorted_set_intra_relation(graph, head, relation, count, rng):
    """Reference: the sampler as it was before the graph's sorted arrays,
    on the frozenset-backed ``ReferenceGraph``."""
    true_tails = graph.tails_by_pair(head, relation, ("train",))
    pool = sorted(graph.tails_by_relation(relation, ("train",)) - true_tails)
    if not pool:
        pool = sorted(set(range(graph.num_entities)) - true_tails)
    if not pool:
        return []
    take = min(count, len(pool))
    picks = rng.choice(len(pool), size=take, replace=False)
    return [pool[i] for i in picks]


def assert_intra_matches_reference(g, queries, seed):
    ref = ReferenceGraph(entity_records(g), g.relations,
                         {"train": g.triples("train").tolist()})
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for h, r, count in queries:
        got = sample_intra_relation(g, h, r, count, rng_new)
        assert got == sorted_set_intra_relation(ref, h, r, count, rng_ref), (h, r, count)
        assert all(type(t) is int for t in got)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestIntraRelationMatchesSortedSets:
    def test_random_graphs(self):
        rng = np.random.default_rng(26)
        for trial in range(30):
            n_e, n_r = int(rng.integers(2, 25)), int(rng.integers(1, 4))
            ents = [EntityRecord(f"e{i}", "", i) for i in range(n_e)]
            rels = [RelationRecord(f"r{i}", "", i) for i in range(n_r)]
            train = [Triple(int(rng.integers(n_e)), int(rng.integers(n_r)),
                            int(rng.integers(n_e))) for _ in range(int(rng.integers(1, 50)))]
            g = KnowledgeGraph(ents, rels, {"train": train})
            queries = [(int(rng.integers(n_e)), int(rng.integers(n_r)), int(rng.integers(0, 6)))
                       for _ in range(25)]
            assert_intra_matches_reference(g, queries, seed=trial)

    def test_fallback_and_empty_pool(self):
        ents = [EntityRecord(f"e{i}", "", i) for i in range(6)]
        rels = [RelationRecord("r", "", 0), RelationRecord("s", "", 1), RelationRecord("u", "", 2)]
        train = [Triple(0, 0, 1), Triple(0, 0, 2)]                 # r: e(r) == e(0, r)
        train += [Triple(1, 1, t) for t in range(6)]               # s: every entity is true
        g = KnowledgeGraph(ents, rels, {"train": train})
        assert sample_intra_relation(g, 1, 1, 3, np.random.default_rng(0)) == []
        queries = [(0, 0, 3), (0, 0, 10), (1, 1, 2), (3, 2, 2), (0, 0, 0), (4, 0, 1)]
        assert_intra_matches_reference(g, queries * 5, seed=27)

    def test_large_graph_pools_and_fallbacks(self):
        # 12,000 entities.  r0: pools of thousands, with e(h, r) of hundreds
        # for heads 0 and 1.  r1: head 1 owns all of e(r), so every r1 query
        # of head 1 falls back to all entities minus hundreds.  r2: no
        # triples, a fallback with nothing excluded.  r3: head 2 links to
        # every entity, so its pool is empty.
        rng = np.random.default_rng(29)
        n_e = 12_000
        ents = [EntityRecord(f"e{i}", "", i) for i in range(n_e)]
        rels = [RelationRecord(f"r{i}", "", i) for i in range(4)]
        train = [Triple(int(h), 0, int(t)) for h, t in zip(
            rng.integers(10, n_e, size=9000), rng.integers(0, 7000, size=9000))]
        train += [Triple(0, 0, int(t)) for t in rng.choice(7000, 600, replace=False)]
        train += [Triple(1, 0, int(t)) for t in rng.choice(n_e, 300, replace=False)]
        train += [Triple(1, 1, int(t)) for t in rng.choice(n_e, 400, replace=False)]
        train += [Triple(2, 3, t) for t in range(n_e)]
        train += [Triple(3, 3, 5)]
        g = KnowledgeGraph(ents, rels, {"train": train})
        assert len(g.tails_by_relation(0)) > 5000
        assert len(g.tails_by_pair(0, 0)) == 600
        assert len(g.tails_by_relation(1)) == len(g.tails_by_pair(1, 1)) == 400
        heads = [0, 1, 2, 3, *map(int, rng.integers(4, n_e, size=6))]
        queries = [(h, r, count) for h in heads for r in range(4)
                   for count in (0, 1, 3, 200)]
        queries += [(0, 0, 7000), (1, 1, n_e), (5, 2, n_e), (3, 3, 50)]
        assert_intra_matches_reference(g, queries, seed=30)


class TestSamplerArgumentsRejected:
    def test_out_of_range_relation(self):
        g = irns_graph()
        for relation in (2, 5, -1):
            with pytest.raises(ValueError, match=f"relation {relation}"):
                sample_intra_relation(g, A, relation, 2, np.random.default_rng(0))

    def test_out_of_range_head(self):
        g = irns_graph()
        for head in (5, 40, -1):
            with pytest.raises(ValueError, match=f"head {head}"):
                sample_intra_relation(g, head, R, 2, np.random.default_rng(0))

    def test_negative_intra_relation_count(self):
        g = irns_graph()
        for relation in (R, 1):  # a drawn pool and the fallback
            with pytest.raises(ValueError, match="count"):
                sample_intra_relation(g, A, relation, -1, np.random.default_rng(0))

    def test_negative_mix_count(self):
        with pytest.raises(ValueError, match="count"):
            mix_hard_negatives(np.eye(3), -1, np.random.default_rng(0))

    def test_negative_hardest_k(self):
        q = MomentumQueue(8, 2)
        q.push(random_units(np.random.default_rng(31), 5, 2))
        with pytest.raises(ValueError, match="k must be non-negative"):
            q.hardest(unit([1, 0]), 0.05, -1)
        assert q.hardest(unit([1, 0]), 0.05, 0).shape == (0, 2)

    def test_in_batch_mask_out_of_range_ids(self):
        ents = [EntityRecord(f"e{i}", "", i) for i in range(3)]
        g = KnowledgeGraph(ents, [RelationRecord("r", "", 0)], {"train": [Triple(0, 0, 1)]})
        with pytest.raises(ValueError, match="head 7 is out of range"):
            in_batch_mask([(0, 0), (7, 0), (0, 5)], [1, 2, 1], g)
        with pytest.raises(ValueError, match="relation 5 is out of range"):
            in_batch_mask([(0, 0), (1, 0), (0, 5)], [1, 2, 1], g)
        with pytest.raises(ValueError, match="tail 3 is out of range"):
            in_batch_mask([(0, 0), (1, 0)], [1, 3], g)
        for queries, tails, name in (([(-1, 0)], [1], "head -1"), ([(0, -1)], [1], "relation -1"),
                                     ([(0, 0)], [-2], "tail -2")):
            with pytest.raises(ValueError, match=name):
                in_batch_mask(queries, tails, g)
        # in batch order: query 0's tail comes before query 1's head
        with pytest.raises(ValueError, match="tail 9"):
            in_batch_mask([(0, 0), (8, 0)], [9, 1], g)
        assert in_batch_mask([(0, 0), (2, 0)], [1, 2], g).shape == (2, 2)

