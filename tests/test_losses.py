import math

import numpy as np
import pytest

from structkgc import autodiff as ad
from structkgc.autodiff import Node
from structkgc.losses import (
    clamp_log_tau,
    contrastive_loss,
    structural_loss,
    total_loss,
)

from gradcheck import assert_gradients_match
from loss_reference import ir_index_and_keep, reference_contrastive_loss


def log_tau_node(tau):
    """A (1, 1) log-temperature leaf, as ``Model`` makes it."""
    return Node([[float(np.log(tau))]])


def oracle_infonce(pos_cos, mh_cos, d_cos, tau, margin):
    """Plain-float recomputation of the per-query loss."""
    num = math.exp((pos_cos - margin) / tau)
    den = num
    den += sum(math.exp(c / tau) for c in mh_cos)
    den += sum(math.exp(c / tau) for c in d_cos)
    return -math.log(num / den)


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def vector_with_cosine(anchor, c, rng):
    """A unit vector whose cosine with unit ``anchor`` is exactly c."""
    anchor = anchor / np.linalg.norm(anchor)
    perp = rng.normal(size=anchor.shape)
    perp -= (perp @ anchor) * anchor
    perp /= np.linalg.norm(perp)
    return c * anchor + math.sqrt(max(0.0, 1 - c * c)) * perp


class TestContrastiveLoss:
    def test_no_negatives_gives_zero(self):
        h = Node([[1.0, 0.0]])
        t = Node([[0.6, 0.8]])
        mask = np.array([[True]])
        loss = contrastive_loss(h, t, mask, log_tau_node(0.05), 0.02)
        assert abs(loss.value[0, 0]) <= 1e-12

    def test_equal_negative_zero_margin_is_ln2(self):
        rng = np.random.default_rng(0)
        anchor = np.array([1.0, 0.0, 0.0])
        pos = vector_with_cosine(anchor, 0.4, rng)
        neg = vector_with_cosine(anchor, 0.4, rng)
        loss = contrastive_loss(
            Node(anchor), Node(pos), np.array([[True]]),
            log_tau_node(0.1), margin=0.0, mh_features=[neg.reshape(1, -1)],
        )
        assert loss.value[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_toy_case_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        anchor = np.array([1.0, 0.0, 0.0])
        pos = vector_with_cosine(anchor, 0.9, rng)
        neg = vector_with_cosine(anchor, 0.1, rng)
        loss = contrastive_loss(
            Node(anchor), Node(pos), np.array([[True]]),
            log_tau_node(0.05), margin=0.02, mh_features=[neg.reshape(1, -1)],
        )
        expected = oracle_infonce(0.9, [0.1], [], 0.05, 0.02)
        assert loss.value[0, 0] == pytest.approx(expected, abs=1e-10)

    def test_random_batch_matches_oracle(self):
        rng = np.random.default_rng(2)
        n, d = 4, 8
        h = unit_rows(rng, n, d)
        t = unit_rows(rng, n, d)
        mask = np.eye(n, dtype=bool)
        mask[0, 2] = True  # pretend a false negative
        mh = [unit_rows(rng, 3, d) for _ in range(n)]
        ir_arrays = [unit_rows(rng, 2, d) for _ in range(n)]
        index, keep = ir_index_and_keep([[2 * q, 2 * q + 1] for q in range(n)], 2)
        loss = contrastive_loss(
            Node(h), Node(t), mask, log_tau_node(0.07), 0.02,
            mh_features=mh, ir_features=(Node(np.vstack(ir_arrays)), index, keep),
        )
        per_query = []
        for q in range(n):
            pos = float(h[q] @ t[q])
            d_cos = [float(h[q] @ t[j]) for j in range(n) if j != q and not mask[q, j]]
            d_cos += [float(h[q] @ v) for v in ir_arrays[q]]
            mh_cos = [float(h[q] @ v) for v in mh[q]]
            per_query.append(oracle_infonce(pos, mh_cos, d_cos, 0.07, 0.02))
        assert loss.value[0, 0] == pytest.approx(np.mean(per_query), abs=1e-10)

    def test_nonnegative_at_zero_margin(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, d = 3, 6
            h, t = unit_rows(rng, n, d), unit_rows(rng, n, d)
            loss = contrastive_loss(
                Node(h), Node(t), np.eye(n, dtype=bool), log_tau_node(0.2), 0.0
            )
            assert loss.value[0, 0] >= 0.0

    def test_monotone_in_negative_similarity(self):
        values = [
            oracle_infonce(0.7, [c], [0.1], 0.05, 0.02)
            for c in np.linspace(-0.9, 0.9, 15)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_masked_entries_excluded(self):
        rng = np.random.default_rng(4)
        h, t = unit_rows(rng, 2, 4), unit_rows(rng, 2, 4)
        all_masked = np.ones((2, 2), dtype=bool)
        loss = contrastive_loss(Node(h), Node(t), all_masked, log_tau_node(0.05), 0.0)
        assert loss.value[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_gradient_reaches_log_tau(self):
        rng = np.random.default_rng(5)
        h, t = unit_rows(rng, 3, 4), unit_rows(rng, 3, 4)
        log_tau = log_tau_node(0.05)
        loss = contrastive_loss(Node(h), Node(t), np.eye(3, dtype=bool), log_tau, 0.02)
        ad.backward(loss)
        assert log_tau.grad is not None
        assert abs(log_tau.grad[0, 0]) > 0


class TestBatchedMatchesPerQueryLoop:
    """One ``row_dots`` per negative source against the per-query loop."""

    N, D, M, K = 6, 8, 4, 3
    # ragged IR: full, partial, none, one, a row shared with query 0, none
    SAMPLED = [[0, 1, 2], [3, 4], [], [5], [1, 6, 0], []]

    def _inputs(self, seed):
        rng = np.random.default_rng(seed)
        h, t = unit_rows(rng, self.N, self.D), unit_rows(rng, self.N, self.D)
        mask = np.eye(self.N, dtype=bool)
        mask[0, 3] = mask[4, 1] = True
        mh = np.stack([unit_rows(rng, self.M, self.D) for _ in range(self.N)])
        ir_rows = unit_rows(rng, 7, self.D)
        return h, t, mask, mh, ir_rows

    def _losses(self, seed, use_mh, use_ir, sampled=None, index=None):
        sampled = self.SAMPLED if sampled is None else sampled
        h, t, mask, mh, ir_rows = self._inputs(seed)
        out = []
        for batched in (True, False):
            leaves = [Node(h), Node(t), log_tau_node(0.07), Node(ir_rows)]
            h_n, t_n, log_tau, rows = leaves
            if batched:
                idx, keep = ir_index_and_keep(sampled, self.K)
                if index is not None:
                    idx = index
                loss = contrastive_loss(
                    h_n, t_n, mask, log_tau, 0.02,
                    mh_features=mh if use_mh else None,
                    ir_features=(rows, idx, keep) if use_ir else None,
                )
            else:
                loss = reference_contrastive_loss(
                    h_n, t_n, mask, log_tau, 0.02,
                    mh_features=list(mh) if use_mh else None,
                    ir_features=[ad.gather_rows(rows, ts) if ts else None
                                 for ts in sampled] if use_ir else None,
                )
            ad.backward(loss)
            out.append((loss.value, [leaf.grad for leaf in leaves]))
        return out

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("use_mh,use_ir", [(True, True), (True, False), (False, True)])
    def test_loss_and_gradients_agree(self, seed, use_mh, use_ir):
        (value, grads), (ref_value, ref_grads) = self._losses(seed, use_mh, use_ir)
        np.testing.assert_allclose(value, ref_value, rtol=0, atol=1e-12)
        for grad, ref in zip(grads, ref_grads):
            if ref is None:  # the IR rows when IR is off
                assert grad is None
                continue
            np.testing.assert_allclose(grad, ref, rtol=0, atol=1e-12)

    def test_every_query_without_ir_tails(self):
        (value, grads), (ref_value, ref_grads) = self._losses(
            9, True, True, sampled=[[]] * self.N)
        np.testing.assert_allclose(value, ref_value, rtol=0, atol=1e-12)
        assert not grads[3].any()
        for grad, ref in zip(grads[:3], ref_grads[:3]):
            np.testing.assert_allclose(grad, ref, rtol=0, atol=1e-12)

    def test_masked_entries_add_exactly_zero(self):
        # pointing the masked slots at other rows changes no bit
        (value, grads), _ = self._losses(5, True, True)
        index, keep = ir_index_and_keep(self.SAMPLED, self.K)
        index[keep == 0] = 6
        (moved, moved_grads), _ = self._losses(5, True, True, index=index)
        np.testing.assert_array_equal(moved, value)
        for grad, moved_grad in zip(grads, moved_grads):
            np.testing.assert_array_equal(moved_grad, grad)

    def test_matches_finite_differences(self):
        h, t, mask, mh, ir_rows = self._inputs(6)
        index, keep = ir_index_and_keep(self.SAMPLED, self.K)
        assert_gradients_match(
            lambda ls: contrastive_loss(
                ls[0], ls[1], mask, ls[2], 0.02, mh_features=mh,
                ir_features=(ls[3], index, keep)),
            [h, t, np.log([[0.07]]), ir_rows],
        )

    def test_rejects_mismatched_shapes(self):
        h, t, mask, mh, ir_rows = self._inputs(7)
        index, keep = ir_index_and_keep(self.SAMPLED, self.K)
        with pytest.raises(ValueError, match="hard negatives"):
            contrastive_loss(Node(h), Node(t), mask, log_tau_node(0.07), 0.02,
                             mh_features=mh[:-1])
        with pytest.raises(ValueError, match="intra-relation"):
            contrastive_loss(Node(h), Node(t), mask, log_tau_node(0.07), 0.02,
                             ir_features=(Node(ir_rows), index, keep[:, :-1]))


class TestStructuralLoss:
    def test_separated_scores_give_near_zero(self):
        n = 4
        scores = np.full((n, n), -1.0)
        np.fill_diagonal(scores, 1.0)
        loss = structural_loss(
            Node(scores), np.eye(n, dtype=bool), log_tau_node(0.02), 0.0
        )
        assert loss.value[0, 0] == pytest.approx(0.0, abs=1e-8)

    def test_uniform_scores_give_log_n_plus_one(self):
        n = 5
        scores = np.full((n, n), 0.3)
        loss = structural_loss(
            Node(scores), np.eye(n, dtype=bool), log_tau_node(0.1), 0.0
        )
        assert loss.value[0, 0] == pytest.approx(math.log(n), abs=1e-10)

    def test_random_batch_matches_oracle(self):
        rng = np.random.default_rng(6)
        n = 4
        scores = rng.uniform(-1, 1, size=(n, n))
        mask = np.eye(n, dtype=bool)
        mask[1, 3] = True
        loss = structural_loss(Node(scores), mask, log_tau_node(0.07), 0.02)
        per_query = []
        for q in range(n):
            negs = [scores[q, j] for j in range(n) if j != q and not mask[q, j]]
            per_query.append(oracle_infonce(scores[q, q], [], negs, 0.07, 0.02))
        assert loss.value[0, 0] == pytest.approx(np.mean(per_query), abs=1e-10)


class TestSharedBody:
    def test_contrastive_without_extras_is_structural_on_the_cosines(self):
        rng = np.random.default_rng(8)
        h, t = unit_rows(rng, 5, 6), unit_rows(rng, 5, 6)
        mask = np.eye(5, dtype=bool)
        mask[2, 0] = mask[4, 1] = True
        text_tau, struct_tau = log_tau_node(0.07), log_tau_node(0.07)
        text = contrastive_loss(Node(h), Node(t), mask, text_tau, 0.02)
        struct = structural_loss(Node(h @ t.T), mask, struct_tau, 0.02)
        np.testing.assert_array_equal(text.value, struct.value)
        ad.backward(text)
        ad.backward(struct)
        np.testing.assert_array_equal(text_tau.grad, struct_tau.grad)


class TestTotalLoss:
    def test_beta_zero_is_text_loss(self):
        out = total_loss(Node([[0.5]]), Node([[0.25]]), 0.0)
        assert out.value[0, 0] == pytest.approx(0.5)

    def test_weighted_sum(self):
        out = total_loss(Node([[0.5]]), Node([[0.25]]), 1.0)
        assert out.value[0, 0] == pytest.approx(0.75)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            total_loss(Node([[0.5]]), Node([[0.25]]), -1.0)

    def test_beta_scales_structural_gradient(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(-0.5, 0.5, size=(3, 3))
        grads = []
        for beta in (1.0, 2.0):
            node = Node(scores)
            loss = total_loss(
                Node([[0.0]]),
                structural_loss(node, np.eye(3, dtype=bool), log_tau_node(0.1), 0.0),
                beta,
            )
            ad.backward(loss)
            grads.append(node.grad.copy())
        np.testing.assert_allclose(grads[1], 2.0 * grads[0], atol=1e-12)


class TestClamp:
    def test_clamp(self):
        node = log_tau_node(0.5)
        node.value[0, 0] = math.log(5.0)
        clamp_log_tau(node, 0.01, 1.0)
        assert math.exp(node.value[0, 0]) == pytest.approx(1.0)
