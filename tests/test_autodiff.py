import contextlib

import numpy as np
import pytest

from structkgc import autodiff as ad

import autodiff_reference
import rotation_reference
import text_reference
from gradcheck import assert_gradients_match, random_weighting

N_SEEDS = 20


@pytest.fixture(autouse=True)
def backward_matches_reference(monkeypatch):
    """Every backward here also runs the every-node reference loop and
    must give each leaf the same gradient bytes."""
    monkeypatch.setattr(ad, "backward", autodiff_reference.checked_backward)


def _weighted_sum(node, w):
    return ad.sum_all(ad.mul(node, ad.Node(w)))


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(ad.Node(np.eye(2)), ad.Node([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.value, [[3.0], [4.0]])

    def test_hand_product(self):
        out = ad.matmul(ad.Node([[1.0, 2.0]]), ad.Node([[3.0], [4.0]]))
        assert out.value[0, 0] == 11.0

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) x \(2, 2\)"):
            ad.matmul(ad.Node(np.zeros((2, 3))), ad.Node(np.zeros((2, 2))))

    def test_gradient_random_3x4_4x2(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        assert_gradients_match(
            lambda ls: ad.sum_all(ad.matmul(ls[0], ls[1])), [a, b]
        )


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = ad.l2_normalize_rows(ad.Node([[3.0, 4.0]]))
        np.testing.assert_allclose(out.value, [[0.6, 0.8]])

    def test_already_unit(self):
        out = ad.l2_normalize_rows(ad.Node([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.value, [[1.0, 0.0, 0.0]])

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(3)
        out = ad.l2_normalize_rows(ad.Node(rng.normal(size=(6, 8))))
        norms = np.linalg.norm(out.value, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_tiny_row_scaled_by_inverse_eps(self):
        x = np.array([[1e-15, 0.0]])
        out = ad.l2_normalize_rows(ad.Node(x), eps=1e-12)
        np.testing.assert_allclose(out.value, x / 1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5)) + 0.5
        w = random_weighting(rng, (3, 5))
        assert_gradients_match(
            lambda ls: _weighted_sum(ad.l2_normalize_rows(ls[0]), w), [x]
        )


class TestBackward:
    def test_sum_gives_ones(self):
        x = ad.Node(np.zeros((2, 3)))
        ad.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = ad.Node([[1.0, 2.0]])
        ad.backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [[2.0, 4.0]])

    def test_diamond_graph_matches_fd(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 2))

        def build(ls):
            (leaf,) = ls
            left = ad.exp(leaf)
            right = ad.mul(leaf, leaf)
            return ad.sum_all(ad.add(left, right))

        assert_gradients_match(build, [x])

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.Node(np.zeros((2, 2))))

    def test_repeated_backward_accumulates(self):
        x = ad.Node([[1.0, 2.0]])
        out = ad.sum_all(x)
        ad.backward(out)
        ad.backward(out)
        np.testing.assert_array_equal(x.grad, 2 * np.ones((1, 2)))

    def test_leaf_used_twice_sums_paths(self):
        x = ad.Node([[3.0]])
        out = ad.sum_all(ad.add(ad.smul(x, 2.0), ad.mul(x, x)))
        ad.backward(out)
        # d/dx (2x + x^2) = 2 + 2x = 8
        assert x.grad[0, 0] == pytest.approx(8.0)


class TestPairedRotation:
    def test_quarter_turn(self):
        out = ad.paired_rotation(ad.Node([[1.0, 0.0]]), ad.Node([[0.0, 1.0]]))
        np.testing.assert_allclose(out.value, [[0.0, 1.0]], atol=1e-12)

    def test_isometry(self):
        rng = np.random.default_rng(6)
        h = rng.normal(size=(4, 8))
        r = rng.normal(size=(4, 8)) + 0.1
        out = ad.paired_rotation(ad.Node(h), ad.Node(r))
        np.testing.assert_allclose(
            np.linalg.norm(out.value, axis=1),
            np.linalg.norm(h, axis=1),
            atol=1e-9,
        )

    def test_unnormalized_phases_are_renormalized(self):
        # phase pair (0, 2) has modulus 2; rotation must still be 90 degrees
        out = ad.paired_rotation(ad.Node([[1.0, 0.0]]), ad.Node([[0.0, 2.0]]))
        np.testing.assert_allclose(out.value, [[0.0, 1.0]], atol=1e-12)

    def test_gradient_both_inputs(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(3, 6))
        r = rng.normal(size=(3, 6)) + 0.3
        w = random_weighting(rng, (3, 6))
        assert_gradients_match(
            lambda ls: _weighted_sum(ad.paired_rotation(ls[0], ls[1]), w), [h, r]
        )

    def test_one_tape_node_with_a_c_ordered_output(self):
        h, r = ad.Node(np.ones((3, 4))), ad.Node(np.ones((3, 4)))
        out = ad.paired_rotation(h, r)
        assert out._parents == (h, r)
        assert out.value.flags.c_contiguous

    def test_matches_the_composite_bit_for_bit(self):
        """Values and both gradients equal the composite's exactly (an
        exact zero may differ in sign), phase pairs below eps included."""
        rng = np.random.default_rng(8)
        for _ in range(200):
            m, n = int(rng.integers(1, 7)), 2 * int(rng.integers(1, 9))
            h = rng.normal(size=(m, n))
            r = rng.normal(size=(m, n))
            tiny = rng.random((m, n // 2)) < 0.2
            r.reshape(m, n // 2, 2)[tiny] *= 1e-14
            w = ad.Node(rng.normal(size=(m, n)))
            results = []
            for rotate in (ad.paired_rotation, rotation_reference.paired_rotation):
                hn, rn = ad.Node(h), ad.Node(r)
                out = rotate(hn, rn, 1e-12)
                ad.backward(ad.sum_all(ad.mul(out, w)))
                results.append([out.value, hn.grad, rn.grad])
            for got, expected in zip(*results):
                np.testing.assert_array_equal(got, expected)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="mismatch"):
            ad.paired_rotation(ad.Node(np.ones((2, 4))), ad.Node(np.ones((1, 4))))
        with pytest.raises(ValueError, match="even"):
            ad.paired_rotation(ad.Node(np.ones((2, 3))), ad.Node(np.ones((2, 3))))


class TestShapedOps:
    def test_gather_rows_repeated_indices_accumulate(self):
        table = ad.Node(np.zeros((4, 2)))
        out = ad.gather_rows(table, [1, 1, 3])
        ad.backward(ad.sum_all(out))
        expected = np.zeros((4, 2))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_mean_pool(self):
        x = ad.Node(np.array([[1.0, 2.0], [3.0, 4.0], [10.0, 10.0], [5.0, 7.0]]))
        out = ad.mean_pool(x, [[1, 1], [0, 1]])
        np.testing.assert_allclose(out.value, [[2.0, 3.0], [5.0, 7.0]])

    def test_mean_pool_requires_selection(self):
        x = ad.Node(np.ones((4, 2)))
        with pytest.raises(ValueError, match="positive weight"):
            ad.mean_pool(x, [[1, 1], [0, 0]])
        with pytest.raises(ValueError, match="do not split"):
            ad.mean_pool(x, [[1, 1, 1]])

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(8)
        x = ad.Node(rng.normal(size=(5, 16)) * 3 + 1)
        out = ad.layer_norm_rows(
            x, ad.Node(np.ones((1, 16))), ad.Node(np.zeros((1, 16)))
        )
        np.testing.assert_allclose(out.value.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.value.std(axis=1), 1.0, atol=1e-3)


def _rand_shape(rng, max_dim=6):
    return (int(rng.integers(1, max_dim)), int(rng.integers(1, max_dim)))


def _row_masks(rng, rows, cols):
    """0/1 masks of shape (rows, cols) with at least one 1 per row."""
    mask = rng.integers(0, 2, size=(rows, cols))
    mask[np.arange(rows), rng.integers(0, cols, size=rows)] = 1
    return mask


def _attention_case(rng, lengths, heads, d, prefix_on=None):
    """FD scenario for ``attention`` over sequences of ``lengths``.

    ``prefix_on`` is None for no prefix, else True/False for every
    sequence or one flag per sequence; the prefix key is a leaf, the
    prefix value a constant whose rows are zero where the prefix is off
    (the mask is a step in the value, which finite differences would
    straddle).
    """
    lengths = np.asarray(lengths)
    rows = len(lengths) * int(lengths.max())
    arrays = [rng.normal(size=(rows, d)) for _ in range(3)]
    w = rng.normal(size=(rows, d))
    v_pre = None
    if prefix_on is not None:
        arrays.append(rng.normal(size=(len(lengths), d)))
        v_pre = rng.normal(size=(len(lengths), d))
        v_pre[~np.broadcast_to(np.asarray(prefix_on, dtype=bool), len(lengths))] = 0.0

    def build(ls):
        prefix = None if v_pre is None else (ls[3], ad.Node(v_pre))
        out = ad.attention(ls[0], ls[1], ls[2], lengths, heads, prefix)
        return ad.sum_all(ad.mul(out, ad.Node(w)))

    return build, arrays


def _primitive_cases(rng):
    """One FD scenario per differentiable primitive, at a random shape."""
    m, n = _rand_shape(rng)
    k = int(rng.integers(1, 5))
    x = rng.normal(size=(m, n))
    y = rng.normal(size=(m, n))
    cases = {
        "add": (lambda ls: ad.sum_all(ad.add(ls[0], ls[1])), [x, y]),
        "sub": (lambda ls: ad.sum_all(ad.sub(ls[0], ls[1])), [x, y]),
        "mul": (lambda ls: ad.sum_all(ad.mul(ls[0], ls[1])), [x, y]),
        "mul_broadcast_row": (
            lambda ls: ad.sum_all(ad.mul(ls[0], ls[1])),
            [x, rng.normal(size=(1, n))],
        ),
        "mul_broadcast_col": (
            lambda ls: ad.sum_all(ad.mul(ls[0], ls[1])),
            [x, rng.normal(size=(m, 1))],
        ),
        "add_broadcast_scalar": (
            lambda ls: ad.sum_all(ad.add(ls[0], ls[1])),
            [x, rng.normal(size=(1, 1))],
        ),
        "smul": (lambda ls: ad.sum_all(ad.smul(ls[0], -1.7)), [x]),
        "exp": (lambda ls: ad.sum_all(ad.exp(ls[0])), [x]),
        "log": (lambda ls: ad.sum_all(ad.log(ls[0])), [np.abs(x) + 0.5]),
        "gelu": (lambda ls: ad.sum_all(ad.gelu(ls[0])), [x]),
        "matmul": (
            lambda ls: ad.sum_all(ad.matmul(ls[0], ls[1])),
            [rng.normal(size=(m, k)), rng.normal(size=(k, n))],
        ),
        "linear": (
            lambda ls, w=rng.normal(size=(m, n)): ad.sum_all(
                ad.mul(ad.linear(ls[0], ls[1], ls[2]), ad.Node(w))
            ),
            [rng.normal(size=(m, k)), rng.normal(size=(k, n)), rng.normal(size=(1, n))],
        ),
        "transpose": (
            lambda ls: ad.sum_all(ad.mul(ad.transpose(ls[0]), ad.Node(y.T))),
            [x],
        ),
        "gather_rows": (
            lambda ls, idx=rng.integers(0, m, size=m + 2): ad.sum_all(
                ad.gather_rows(ls[0], idx)
            ),
            [x],
        ),
        "gather_cols": (
            lambda ls, idx=rng.integers(0, n, size=n + 1): ad.sum_all(
                ad.gather_cols(ls[0], idx)
            ),
            [x],
        ),
        "sum_axis0": (
            lambda ls: ad.sum_all(ad.mul(ad.sum_axis(ls[0], 0), ad.Node(y[:1]))),
            [x],
        ),
        "sum_axis1": (
            lambda ls: ad.sum_all(ad.mul(ad.sum_axis(ls[0], 1), ad.Node(y[:, :1]))),
            [x],
        ),
        "l2_normalize_rows": (
            lambda ls: ad.sum_all(ad.mul(ad.l2_normalize_rows(ls[0]), ad.Node(y))),
            [x + np.sign(x) * 0.2],
        ),
        "mean_pool": (
            lambda ls, w=_row_masks(rng, m, n), y=rng.normal(size=(m, k)): ad.sum_all(
                ad.mul(ad.mean_pool(ls[0], w), ad.Node(y))
            ),
            [rng.normal(size=(m * n, k))],
        ),
        "row_dots": (
            lambda ls: ad.sum_all(ad.mul(ad.row_dots(ls[0], ls[1], n), ad.Node(y))),
            [rng.normal(size=(m, k)), rng.normal(size=(m * n, k))],
        ),
        "layer_norm_rows": (
            lambda ls: ad.sum_all(
                ad.mul(ad.layer_norm_rows(ls[0], ls[1], ls[2]), ad.Node(y))
            ),
            [x, rng.normal(size=(1, n)), rng.normal(size=(1, n))],
        ),
        "attention": _attention_case(
            rng, rng.integers(1, 4, size=int(rng.integers(1, 4))), 2, 4,
            prefix_on=True,
        ),
    }
    if n % 2 == 0:
        cases["paired_rotation"] = (
            lambda ls: ad.sum_all(ad.mul(ad.paired_rotation(ls[0], ls[1]), ad.Node(y))),
            [x, rng.normal(size=(m, n)) + np.sign(rng.normal(size=(m, n))) * 0.3],
        )
    return cases


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_every_primitive_matches_finite_differences(seed):
    rng = np.random.default_rng(1000 + seed)
    for name, (build, arrays) in _primitive_cases(rng).items():
        try:
            assert_gradients_match(build, arrays)
        except AssertionError as e:  # pragma: no cover - diagnostic path
            raise AssertionError(f"primitive {name} failed FD check: {e}") from e


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 3])
    @pytest.mark.parametrize("prefix_on", [None, True, False, [True, False, True]])
    def test_matches_finite_differences(self, heads, prefix_on):
        rng = np.random.default_rng(40 + heads)
        # ragged: one full-length, one length-1 and one middle sequence
        build, arrays = _attention_case(rng, [4, 1, 2], heads, 2 * heads,
                                        prefix_on=prefix_on)
        assert_gradients_match(build, arrays)

    def _inputs(self, rng, lengths, d):
        rows = len(lengths) * max(lengths)
        return [ad.Node(rng.normal(size=(rows, d))) for _ in range(3)]

    def test_masked_keys_and_prefix_rows_take_no_gradient(self):
        rng = np.random.default_rng(44)
        lengths = [3, 1]
        q, k, v = self._inputs(rng, lengths, 4)
        k_pre = ad.Node(rng.normal(size=(2, 4)))
        v_pre = ad.Node(np.vstack([np.zeros(4), rng.normal(size=4)]))
        out = ad.attention(q, k, v, lengths, 2, (k_pre, v_pre))
        ad.backward(ad.sum_all(ad.mul(out, ad.Node(rng.normal(size=(6, 4))))))
        # sequence 1 has one key; its padded key/value rows are rows 4 and 5
        assert not np.any(k.grad[4:]) and not np.any(v.grad[4:])
        assert not np.any(k_pre.grad[0]) and not np.any(v_pre.grad[0])
        assert np.any(k_pre.grad[1]) and np.any(v_pre.grad[1])

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(47)
        q, k, v = self._inputs(rng, [2, 2], 4)
        with pytest.raises(ValueError, match="lengths"):
            ad.attention(q, k, v, [2, 3], 2)
        with pytest.raises(ValueError, match="split"):
            ad.attention(q, k, v, [1, 1, 1], 2)
        with pytest.raises(ValueError, match="prefix"):
            ad.attention(q, k, v, [2, 2], 2, (ad.Node(np.ones((1, 4))),) * 2)


class TestFusedMatchesComposite:
    """The fused encoder primitives against the compositions they replaced."""

    def test_linear_is_matmul_then_add_bit_for_bit(self):
        rng = np.random.default_rng(50)
        arrays = [rng.normal(size=(37, 16)), rng.normal(size=(16, 64)),
                  rng.normal(size=(1, 64))]
        w = ad.Node(rng.normal(size=(37, 64)))
        results = []
        for fused in (True, False):
            x, wt, b = (ad.Node(a) for a in arrays)
            out = ad.linear(x, wt, b) if fused else ad.add(ad.matmul(x, wt), b)
            ad.backward(ad.sum_all(ad.mul(out, w)))
            results.append([out.value, x.grad, wt.grad, b.grad])
        for got, expected in zip(*results):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("recording", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_linear_and_gelu_equal_their_formulas_byte_for_byte(self, seed, recording):
        # in-place arithmetic in both, on entries of every scale, among
        # them signed zeros and |x| > 10
        from scipy.special import erf

        rng = np.random.default_rng(80 + seed)

        def values(rows, cols):
            a = rng.normal(size=(rows, cols)) * rng.choice([1e-3, 1.0, 30.0], size=(rows, cols))
            zeros = rng.choice(a.size, size=a.size // 5, replace=False)
            a.flat[zeros] = rng.choice([0.0, -0.0], size=len(zeros))
            return a

        x, w, b = values(37, 16), values(16, 64), values(1, 64)
        zeros = x[x == 0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        assert (np.abs(x) > 10).any()
        with contextlib.nullcontext() if recording else ad.no_grad():
            affine = ad.linear(ad.Node(x), ad.Node(w), ad.Node(b))
            activated = ad.gelu(ad.Node(x))
        assert bool(affine._parents) == bool(activated._parents) == recording
        assert affine.value.tobytes() == (x @ w + b).tobytes()
        assert activated.value.tobytes() == (x * (0.5 * (1.0 + erf(x / np.sqrt(2.0))))).tobytes()

    def test_linear_rejects_mismatched_bias(self):
        with pytest.raises(ValueError, match="linear shape mismatch"):
            ad.linear(ad.Node(np.ones((2, 3))), ad.Node(np.ones((3, 4))),
                      ad.Node(np.ones((1, 3))))

    @pytest.mark.parametrize("seed", range(5))
    def test_layer_norm_forward_bit_identical_gradients_close(self, seed):
        rng = np.random.default_rng(60 + seed)
        rows, width = int(rng.integers(1, 40)), int(rng.integers(1, 70))
        arrays = [rng.normal(size=(rows, width)) * rng.uniform(0.1, 10.0) + rng.normal(),
                  rng.normal(size=(1, width)), rng.normal(size=(1, width))]
        w = ad.Node(rng.normal(size=(rows, width)))
        results = []
        for layer_norm in (ad.layer_norm_rows, text_reference.layer_norm_rows):
            leaves = [ad.Node(a) for a in arrays]
            out = layer_norm(*leaves)
            ad.backward(ad.sum_all(ad.mul(out, w)))
            results.append((out.value, [leaf.grad for leaf in leaves]))
        (fused, fused_grads), (composite, composite_grads) = results
        np.testing.assert_array_equal(fused, composite)
        for got, expected in zip(fused_grads, composite_grads):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_mean_pool_matches_dense_mask_pooling(self, seed):
        rng = np.random.default_rng(70 + seed)
        batch, seq_len, d = (int(rng.integers(1, 9)), int(rng.integers(1, 12)),
                             int(rng.integers(1, 20)))
        weights = _row_masks(rng, batch, seq_len)
        x_value = rng.normal(size=(batch * seq_len, d))
        w = ad.Node(rng.normal(size=(batch, d)))
        results = []
        for pool in (ad.mean_pool, text_reference.dense_mean_pool):
            x = ad.Node(x_value)
            out = pool(x, weights)
            ad.backward(ad.sum_all(ad.mul(out, w)))
            results.append((out.value, x.grad))
        (fused, fused_grad), (dense, dense_grad) = results
        np.testing.assert_allclose(fused, dense, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fused_grad, dense_grad, rtol=0, atol=1e-12)

    def test_row_dots_rejects_mismatched_rows(self):
        with pytest.raises(ValueError, match="row_dots"):
            ad.row_dots(ad.Node(np.ones((2, 3))), ad.Node(np.ones((5, 3))), 2)


class TestNoGrad:
    def test_nodes_built_inside_record_no_parents(self):
        a, b = ad.Node([[1.0, 2.0]]), ad.Node([[3.0, 4.0]])
        with ad.no_grad():
            out = ad.exp(ad.mul(a, b))
        assert out._parents == () and out._vjp is None
        assert ad.mul(a, b)._parents == (a, b)

    def test_values_equal_the_recording_path(self):
        rng = np.random.default_rng(48)
        lengths = [3, 1, 2]
        q, k, v = (ad.Node(rng.normal(size=(9, 4))) for _ in range(3))
        prefix = (ad.Node(rng.normal(size=(3, 4))), ad.Node(rng.normal(size=(3, 4))))

        w, b = ad.Node(rng.normal(size=(4, 4))), ad.Node(rng.normal(size=(1, 4)))
        weights = [[1, 1, 1], [1, 0, 0], [1, 1, 0]]
        feats = ad.Node(rng.normal(size=(6, 4)))

        def build():
            att = ad.attention(q, k, v, lengths, 2, prefix)
            hidden = ad.layer_norm_rows(ad.gelu(ad.linear(att, w, b)),
                                        ad.Node(np.ones((1, 4))), ad.Node(np.zeros((1, 4))))
            pooled = ad.l2_normalize_rows(ad.mean_pool(hidden, weights))
            return ad.row_dots(pooled, feats, 2)

        recorded = build()
        with ad.no_grad():
            plain = build()
        np.testing.assert_array_equal(plain.value, recorded.value)

    def test_mode_returns_after_nesting_and_exceptions(self):
        a = ad.Node([[1.0]])
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert ad.add(a, a)._parents == ()
        assert ad.add(a, a)._parents == (a, a)
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert ad.add(a, a)._parents == (a, a)
