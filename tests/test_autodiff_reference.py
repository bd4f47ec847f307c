import contextlib

import numpy as np
import pytest

from structkgc import autodiff as ad

import autodiff_reference
import text_reference
from autodiff_reference import (
    add_const,
    attention,
    concat_rows,
    exp,
    gather_cols,
    gelu,
    layer_norm_rows,
    linear,
    log,
    mean_all,
    reshape,
    softmax_rows,
    sub,
    sum_all,
    sum_axis,
)
from gradcheck import assert_gradients_match, random_weighting

N_SEEDS = 20


@pytest.fixture(autouse=True)
def backward_matches_reference(monkeypatch):
    """Every backward here also runs the every-node reference loop and
    must give each leaf the same gradient bytes."""
    monkeypatch.setattr(ad, "backward", autodiff_reference.checked_backward)


class TestSoftmaxRows:
    def test_symmetric_row(self):
        out = softmax_rows(ad.Node([[0.0, 0.0]]))
        np.testing.assert_allclose(out.value, [[0.5, 0.5]])

    def test_large_logits_no_overflow(self):
        out = softmax_rows(ad.Node([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.value))
        np.testing.assert_allclose(out.value, [[1.0, 0.0]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = softmax_rows(ad.Node(rng.normal(size=(7, 9)) * 10))
        np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)

    def test_gradient_random_2x5(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 5))
        w = random_weighting(rng, (2, 5))
        assert_gradients_match(
            lambda ls: sum_all(ad.mul(softmax_rows(ls[0]), ad.Node(w))), [x]
        )


class TestReductions:
    def test_sum_gives_ones(self):
        x = ad.Node(np.zeros((2, 3)))
        ad.backward(sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


class TestShapedOps:
    def test_concat_rows_backward_split(self):
        a = ad.Node(np.ones((2, 3)))
        b = ad.Node(np.ones((1, 3)))
        out = concat_rows([a, b])
        assert out.value.shape == (3, 3)
        ad.backward(sum_all(ad.mul(out, ad.Node(np.arange(9.0).reshape(3, 3)))))
        np.testing.assert_array_equal(a.grad, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(b.grad, [[6.0, 7.0, 8.0]])

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(8)
        x = ad.Node(rng.normal(size=(5, 16)) * 3 + 1)
        out = layer_norm_rows(
            x, ad.Node(np.ones((1, 16))), ad.Node(np.zeros((1, 16)))
        )
        np.testing.assert_allclose(out.value.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.value.std(axis=1), 1.0, atol=1e-3)


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
        out = attention(ls[0], ls[1], ls[2], lengths, heads, prefix)
        return sum_all(ad.mul(out, ad.Node(w)))

    return build, arrays


def _cases(rng):
    """One FD scenario per reference primitive, at a random shape."""
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    x = rng.normal(size=(m, n))
    y = rng.normal(size=(m, n))
    k = int(rng.integers(1, 5))
    return {
        "reshape": (
            lambda ls: sum_all(
                ad.mul(reshape(ls[0], 1, m * n), ad.Node(y.reshape(1, -1)))
            ),
            [x],
        ),
        "concat_rows": (
            lambda ls, w=rng.normal(size=(2 * m, n)): sum_all(
                ad.mul(concat_rows(ls), ad.Node(w))
            ),
            [x, y],
        ),
        "softmax_rows": (
            lambda ls: sum_all(ad.mul(softmax_rows(ls[0]), ad.Node(y))),
            [x],
        ),
        "exp": (lambda ls: sum_all(exp(ls[0])), [x]),
        "gather_cols": (
            lambda ls, idx=rng.integers(0, n, size=n + 1): sum_all(
                gather_cols(ls[0], idx)
            ),
            [x],
        ),
        "gelu": (lambda ls: sum_all(gelu(ls[0])), [x]),
        "linear": (
            lambda ls, w=rng.normal(size=(m, n)): sum_all(
                ad.mul(linear(ls[0], ls[1], ls[2]), ad.Node(w))
            ),
            [rng.normal(size=(m, k)), rng.normal(size=(k, n)), rng.normal(size=(1, n))],
        ),
        "layer_norm_rows": (
            lambda ls: sum_all(
                ad.mul(layer_norm_rows(ls[0], ls[1], ls[2]), ad.Node(y))
            ),
            [x, rng.normal(size=(1, n)), rng.normal(size=(1, n))],
        ),
        "attention": _attention_case(
            rng, rng.integers(1, 4, size=int(rng.integers(1, 4))), 2, 4,
            prefix_on=True,
        ),
        "sub": (lambda ls: sum_all(sub(ls[0], ls[1])), [x, y]),
        "add_const": (lambda ls: sum_all(ad.mul(add_const(ls[0], 0.3), ad.Node(y))), [x]),
        "log": (lambda ls: sum_all(log(ls[0])), [np.abs(x) + 0.5]),
        "sum_axis0": (
            lambda ls: sum_all(ad.mul(sum_axis(ls[0], 0), ad.Node(y[:1]))),
            [x],
        ),
        "sum_axis1": (
            lambda ls: sum_all(ad.mul(sum_axis(ls[0], 1), ad.Node(y[:, :1]))),
            [x],
        ),
        "mean_all": (lambda ls: mean_all(ad.mul(ls[0], ad.Node(y))), [x]),
    }


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_every_reference_primitive_matches_finite_differences(seed):
    rng = np.random.default_rng(1000 + seed)
    for name, (build, arrays) in _cases(rng).items():
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
        out = attention(q, k, v, lengths, 2, (k_pre, v_pre))
        ad.backward(sum_all(ad.mul(out, ad.Node(rng.normal(size=(6, 4))))))
        # sequence 1 has one key; its padded key/value rows are rows 4 and 5
        assert not np.any(k.grad[4:]) and not np.any(v.grad[4:])
        assert not np.any(k_pre.grad[0]) and not np.any(v_pre.grad[0])
        assert np.any(k_pre.grad[1]) and np.any(v_pre.grad[1])

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(47)
        q, k, v = self._inputs(rng, [2, 2], 4)
        with pytest.raises(ValueError, match="lengths"):
            attention(q, k, v, [2, 3], 2)
        with pytest.raises(ValueError, match="split"):
            attention(q, k, v, [1, 1, 1], 2)
        with pytest.raises(ValueError, match="prefix"):
            attention(q, k, v, [2, 2], 2, (ad.Node(np.ones((1, 4))),) * 2)


class TestFusedMatchesComposite:
    """The one-node primitives against the compositions they replaced."""

    def test_linear_is_matmul_then_add_bit_for_bit(self):
        rng = np.random.default_rng(50)
        arrays = [rng.normal(size=(37, 16)), rng.normal(size=(16, 64)),
                  rng.normal(size=(1, 64))]
        w = ad.Node(rng.normal(size=(37, 64)))
        results = []
        for fused in (True, False):
            x, wt, b = (ad.Node(a) for a in arrays)
            out = linear(x, wt, b) if fused else ad.add(ad.matmul(x, wt), b)
            ad.backward(sum_all(ad.mul(out, w)))
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
            affine = linear(ad.Node(x), ad.Node(w), ad.Node(b))
            activated = gelu(ad.Node(x))
        assert bool(affine._parents) == bool(activated._parents) == recording
        assert affine.value.tobytes() == (x @ w + b).tobytes()
        assert activated.value.tobytes() == (x * (0.5 * (1.0 + erf(x / np.sqrt(2.0))))).tobytes()

    def test_linear_rejects_mismatched_bias(self):
        with pytest.raises(ValueError, match="linear shape mismatch"):
            linear(ad.Node(np.ones((2, 3))), ad.Node(np.ones((3, 4))),
                      ad.Node(np.ones((1, 3))))

    @pytest.mark.parametrize("seed", range(5))
    def test_layer_norm_forward_bit_identical_gradients_close(self, seed):
        rng = np.random.default_rng(60 + seed)
        rows, width = int(rng.integers(1, 40)), int(rng.integers(1, 70))
        arrays = [rng.normal(size=(rows, width)) * rng.uniform(0.1, 10.0) + rng.normal(),
                  rng.normal(size=(1, width)), rng.normal(size=(1, width))]
        w = ad.Node(rng.normal(size=(rows, width)))
        results = []
        for layer_norm in (layer_norm_rows, text_reference.layer_norm_rows):
            leaves = [ad.Node(a) for a in arrays]
            out = layer_norm(*leaves)
            ad.backward(sum_all(ad.mul(out, w)))
            results.append((out.value, [leaf.grad for leaf in leaves]))
        (fused, fused_grads), (composite, composite_grads) = results
        np.testing.assert_array_equal(fused, composite)
        for got, expected in zip(fused_grads, composite_grads):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
