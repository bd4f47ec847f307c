import numpy as np
import pytest

from structkgc import autodiff as ad

import autodiff_reference
from autodiff_reference import concat_rows, reshape, softmax_rows
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
            lambda ls: ad.sum_all(ad.mul(softmax_rows(ls[0]), ad.Node(w))), [x]
        )


class TestShapedOps:
    def test_concat_rows_backward_split(self):
        a = ad.Node(np.ones((2, 3)))
        b = ad.Node(np.ones((1, 3)))
        out = concat_rows([a, b])
        assert out.value.shape == (3, 3)
        ad.backward(ad.sum_all(ad.mul(out, ad.Node(np.arange(9.0).reshape(3, 3)))))
        np.testing.assert_array_equal(a.grad, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(b.grad, [[6.0, 7.0, 8.0]])


def _cases(rng):
    """One FD scenario per reference primitive, at a random shape."""
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    x = rng.normal(size=(m, n))
    y = rng.normal(size=(m, n))
    return {
        "reshape": (
            lambda ls: ad.sum_all(
                ad.mul(reshape(ls[0], 1, m * n), ad.Node(y.reshape(1, -1)))
            ),
            [x],
        ),
        "concat_rows": (
            lambda ls, w=rng.normal(size=(2 * m, n)): ad.sum_all(
                ad.mul(concat_rows(ls), ad.Node(w))
            ),
            [x, y],
        ),
        "softmax_rows": (
            lambda ls: ad.sum_all(ad.mul(softmax_rows(ls[0]), ad.Node(y))),
            [x],
        ),
    }


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_every_reference_primitive_matches_finite_differences(seed):
    rng = np.random.default_rng(1000 + seed)
    for name, (build, arrays) in _cases(rng).items():
        try:
            assert_gradients_match(build, arrays)
        except AssertionError as e:  # pragma: no cover - diagnostic path
            raise AssertionError(f"primitive {name} failed FD check: {e}") from e
