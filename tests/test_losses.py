import contextlib
import math

import numpy as np
import pytest

from structkgc import autodiff as ad
from structkgc import losses
from structkgc.autodiff import Node
from structkgc.losses import (
    clamp_log_tau,
    contrastive_loss,
    structural_loss,
    total_loss,
)

import loss_reference
from autodiff_reference import tape_arrays
from gradcheck import assert_gradients_match
from loss_reference import ir_index, reference_contrastive_loss


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
        index = ir_index([[2 * q, 2 * q + 1] for q in range(n)], 2)
        loss = contrastive_loss(
            Node(h), Node(t), mask, log_tau_node(0.07), 0.02,
            mh_features=mh, ir_features=(Node(np.vstack(ir_arrays)), index),
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
        index = ir_index(sampled, self.K) if index is None else index
        h, t, mask, mh, ir_rows = self._inputs(seed)
        out = []
        for batched in (True, False):
            leaves = [Node(h), Node(t), log_tau_node(0.07), Node(ir_rows)]
            h_n, t_n, log_tau, rows = leaves
            if batched:
                loss = contrastive_loss(
                    h_n, t_n, mask, log_tau, 0.02,
                    mh_features=mh if use_mh else None,
                    ir_features=(rows, index) if use_ir else None,
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

    def test_an_empty_slot_adds_exactly_zero(self):
        # a -1 slot gathers row 0 under a 0 weight: with no query naming row
        # 0, what row 0 holds changes no bit of the loss or of any gradient,
        # and row 0's own gradient is exactly zero
        h, t, mask, mh, ir_rows = self._inputs(5)
        index = ir_index([[r for r in rows if r] for rows in self.SAMPLED], self.K)
        assert (index == -1).any() and not (index == 0).any()
        runs = []
        for row0 in (ir_rows[0], ir_rows[6]):
            rows = ir_rows.copy()
            rows[0] = row0
            leaves = [Node(h), Node(t), log_tau_node(0.07), Node(rows)]
            loss = contrastive_loss(leaves[0], leaves[1], mask, leaves[2], 0.02,
                                    mh_features=mh, ir_features=(leaves[3], index))
            ad.backward(loss)
            runs.append((loss.value, [leaf.grad for leaf in leaves]))
        (value, grads), (moved, moved_grads) = runs
        np.testing.assert_array_equal(moved, value)
        for grad, moved_grad in zip(grads, moved_grads):
            np.testing.assert_array_equal(moved_grad, grad)
        assert not grads[3][0].any()

    def test_matches_finite_differences(self):
        h, t, mask, mh, ir_rows = self._inputs(6)
        index = ir_index(self.SAMPLED, self.K)
        assert_gradients_match(
            lambda ls: contrastive_loss(
                ls[0], ls[1], mask, ls[2], 0.02, mh_features=mh,
                ir_features=(ls[3], index)),
            [h, t, np.log([[0.07]]), ir_rows],
        )

    def test_rejects_mismatched_shapes(self):
        h, t, mask, mh, ir_rows = self._inputs(7)
        with pytest.raises(ValueError, match="hard negatives"):
            contrastive_loss(Node(h), Node(t), mask, log_tau_node(0.07), 0.02,
                             mh_features=mh[:-1])
        with pytest.raises(ValueError, match="intra-relation index, got"):
            contrastive_loss(Node(h), Node(t), mask, log_tau_node(0.07), 0.02,
                             ir_features=(Node(ir_rows), ir_index(self.SAMPLED, self.K)[:-1]))

    @pytest.mark.parametrize("slot", [-2, 7])
    def test_rejects_an_index_outside_the_rows(self, slot):
        # -1 is the one empty slot; below it, or at or past the 7 rows, is
        # refused rather than gathered or masked
        h, t, mask, mh, ir_rows = self._inputs(7)
        index = ir_index(self.SAMPLED, self.K)
        index[2, 0] = slot
        with pytest.raises(ValueError, match=r"outside \[-1, 7\)"):
            contrastive_loss(Node(h), Node(t), mask, log_tau_node(0.07), 0.02,
                             ir_features=(Node(ir_rows), index))


class TestOneNodeMatchesTheComposition:
    """Each loss is one ``info_nce`` node with the bytes of the one-node-per-op
    composition it replaced: value and every leaf gradient."""

    N, D, M, K = 5, 6, 3, 2

    def _inputs(self, seed, full_row):
        rng = np.random.default_rng(seed)
        h, t = unit_rows(rng, self.N, self.D), unit_rows(rng, self.N, self.D)
        mask = np.eye(self.N, dtype=bool)
        mask[0, 3] = mask[2, 4] = True
        if full_row:  # no in-batch negative left in row 1
            mask[1] = True
        mh = np.stack([unit_rows(rng, self.M, self.D) for _ in range(self.N)])
        ir_rows = unit_rows(rng, 4, self.D)
        index = ir_index([[0, 1], [2], [], [3, 0], [1]], self.K)  # -1 slots
        return h, t, mask, mh, ir_rows, index

    def _run(self, module, inputs, use_mh, use_ir, recording):
        h, t, mask, mh, ir_rows, index = inputs
        leaves = [Node(h), Node(t), log_tau_node(0.07), Node(ir_rows), Node(h @ t.T)]
        with contextlib.nullcontext() if recording else ad.no_grad():
            text = module.contrastive_loss(
                leaves[0], leaves[1], mask, leaves[2], 0.02,
                mh_features=mh if use_mh else None,
                ir_features=(leaves[3], index) if use_ir else None)
            struct = module.structural_loss(leaves[4], mask, leaves[2], 0.02)
            loss = total_loss(text, struct, 0.5)
        if recording:
            ad.backward(loss)
        return [x.value.tobytes() for x in (text, struct, loss)] + [
            None if leaf.grad is None else leaf.grad.tobytes() for leaf in leaves]

    @pytest.mark.parametrize("recording", [True, False])
    @pytest.mark.parametrize("full_row", [False, True])
    @pytest.mark.parametrize("use_mh,use_ir", [(True, True), (True, False),
                                               (False, True), (False, False)])
    def test_same_bytes(self, use_mh, use_ir, full_row, recording):
        inputs = self._inputs(11, full_row)
        one_node = self._run(losses, inputs, use_mh, use_ir, recording)
        assert one_node == self._run(loss_reference, inputs, use_mh, use_ir, recording)
        assert (one_node[3] is not None) == recording

    def test_each_loss_is_one_node_over_its_inputs(self):
        h, t, mask, mh, ir_rows, index = self._inputs(12, False)
        h_n, rows, log_tau = Node(h), Node(ir_rows), log_tau_node(0.07)
        text = contrastive_loss(h_n, Node(t), mask, log_tau, 0.02,
                                mh_features=mh, ir_features=(rows, index))
        mh_dots, ir_dots, tau, cos = text._parents
        assert mh_dots._parents == (h_n,)  # the features are not a leaf
        assert ir_dots._parents[0] is h_n and ir_dots._parents[1]._parents == (rows,)
        assert tau is log_tau  # no node between the loss and its temperature
        assert cos._parents[0] is h_n
        scores = Node(h @ t.T)
        struct = structural_loss(scores, mask, log_tau, 0.02)
        assert struct._parents == (log_tau, scores)

    def test_the_node_keeps_only_what_backward_reads(self):
        # its inputs, the masked exponentials, e^pos, the denominator, the
        # shifted positives and the inverse temperature, each with the bytes
        # of the composition's node
        h, t, mask, mh, ir_rows, index = self._inputs(13, True)
        dots = [(Node(d), keep) for d, keep in (
            (np.einsum("bd,bmd->bm", h, mh), None),
            (np.einsum("bd,bmd->bm", h, ir_rows[np.maximum(index, 0)]), index >= 0))]
        scores, log_tau = Node(h @ t.T), log_tau_node(0.07)
        loss = ad.info_nce(scores, log_tau, 0.02, ~mask, dots)
        composed = loss_reference.info_nce(scores, log_tau, 0.02, ~mask, dots)
        assert loss.value.tobytes() == composed.value.tobytes()

        def keys(arrays):
            return {(a.shape, a.tobytes()) for a in arrays.values()}

        inputs = [scores, log_tau] + [d for d, _ in dots]
        kept = keys(tape_arrays(loss)) - keys({id(x): x.value for x in inputs})
        inv = np.exp(-log_tau.value[0, 0])
        shifted = np.diag(h @ t.T)[:, None] - 0.02
        e_batch = np.exp(h @ t.T * inv) * (~mask & ~np.eye(self.N, dtype=bool))
        e_mh, e_ir = (np.exp(d.value * inv) * (1.0 if k is None else k) for d, k in dots)
        e_pos = np.exp(shifted * inv)
        denom = e_pos + e_batch.sum(axis=1, keepdims=True) + e_mh.sum(
            axis=1, keepdims=True) + e_ir.sum(axis=1, keepdims=True)
        expected = [loss.value, shifted, e_batch, e_mh, e_ir, e_pos, denom, np.array([[inv]])]
        assert len(kept) == len(expected)
        for want in expected:
            assert any(np.allclose(want, np.frombuffer(b).reshape(s), rtol=0, atol=1e-12)
                       for s, b in kept if s == want.shape)
        assert kept <= keys(tape_arrays(composed))

    def test_rejects_mismatched_shapes(self):
        scores, log_tau = Node(np.zeros((3, 3))), Node([[0.0]])
        keep = np.ones((3, 3), dtype=bool)
        with pytest.raises(ValueError, match="info_nce needs"):
            ad.info_nce(Node(np.zeros((3, 2))), log_tau, 0.0, keep)
        with pytest.raises(ValueError, match="info_nce needs"):
            ad.info_nce(scores, Node([[1.0, 2.0]]), 0.0, keep)
        with pytest.raises(ValueError, match="negatives"):
            ad.info_nce(scores, log_tau, 0.0, keep[:2])
        with pytest.raises(ValueError, match="negatives"):
            ad.info_nce(scores, log_tau, 0.0, keep, [(Node(np.zeros((2, 4))), None)])
        with pytest.raises(ValueError, match="negatives"):
            ad.info_nce(scores, log_tau, 0.0, keep,
                        [(Node(np.zeros((3, 4))), np.ones((3, 2), dtype=bool))])


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
