import contextlib

import numpy as np
import pytest

from structkgc import autodiff as ad

import autodiff_reference
import rotation_reference
import text_reference
from autodiff_reference import sum_all
from gradcheck import assert_gradients_match, random_weighting

N_SEEDS = 20


@pytest.fixture(autouse=True)
def backward_matches_reference(monkeypatch):
    """Every backward here also runs the every-node reference loop and
    must give each leaf the same gradient bytes."""
    monkeypatch.setattr(ad, "backward", autodiff_reference.checked_backward)


def _weighted_sum(node, w):
    return sum_all(ad.mul(node, ad.Node(w)))


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
            lambda ls: sum_all(ad.matmul(ls[0], ls[1])), [a, b]
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
    def test_sum_of_squares(self):
        x = ad.Node([[1.0, 2.0]])
        ad.backward(sum_all(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [[2.0, 4.0]])

    def test_diamond_graph_matches_fd(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 2))

        def build(ls):
            (leaf,) = ls
            left = ad.l2_normalize_rows(leaf)
            right = ad.mul(leaf, leaf)
            return sum_all(ad.add(left, right))

        assert_gradients_match(build, [x])

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.Node(np.zeros((2, 2))))

    def test_repeated_backward_accumulates(self):
        x = ad.Node([[1.0, 2.0]])
        out = sum_all(x)
        ad.backward(out)
        ad.backward(out)
        np.testing.assert_array_equal(x.grad, 2 * np.ones((1, 2)))

    def test_leaf_used_twice_sums_paths(self):
        x = ad.Node([[3.0]])
        out = sum_all(ad.add(ad.smul(x, 2.0), ad.mul(x, x)))
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
                ad.backward(sum_all(ad.mul(out, w)))
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
        ad.backward(sum_all(out))
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


def _rand_shape(rng, max_dim=6):
    return (int(rng.integers(1, max_dim)), int(rng.integers(1, max_dim)))


def _row_masks(rng, rows, cols):
    """0/1 masks of shape (rows, cols) with at least one 1 per row."""
    mask = rng.integers(0, 2, size=(rows, cols))
    mask[np.arange(rows), rng.integers(0, cols, size=rows)] = 1
    return mask


def _sublayer_arrays(rng, kind, rows, d, b_count, prefix):
    """x and the sublayer's weights in parent order, then for ``prefix``
    "on" or "zero rows" a (B, 3d) prefix array whose columns d .. 2d - 1
    are the keys and 2d .. 3d - 1 the values, the first d columns read by
    no one; "zero rows" sets the value block's row 1 to exactly zero,
    which switches that row's prefix off.  Entries span several scales,
    and GELU sees |h| > 10."""
    def normal(r, c, scale=0.5):
        return rng.normal(size=(r, c)) * scale

    arrays = [normal(rows, d, 2.0)]
    if kind == "attention":
        for _ in range(4):
            arrays += [normal(d, d), normal(1, d)]
    else:
        arrays += [normal(d, 4 * d, 3.0), normal(1, 4 * d), normal(4 * d, d), normal(1, d)]
    arrays += [1.0 + normal(1, d, 0.1), normal(1, d)]
    if prefix is not None:
        arrays.append(normal(b_count, 3 * d, 1.0))
        if prefix == "zero rows":
            arrays[-1][1 % b_count, 2 * d:] = 0.0
    return arrays


def _sublayer(sublayers, kind, leaves, lengths, heads):
    """``sublayers.attention_sublayer`` or ``sublayers.ffn_sublayer`` over
    leaves laid out as :func:`_sublayer_arrays` lays them out."""
    x, *rest = leaves
    pairs = list(zip(rest[::2], rest[1::2]))
    if kind == "ffn":
        return sublayers.ffn_sublayer(x, *pairs)
    prefix = (rest[10], x.value.shape[1]) if len(rest) > 10 else None
    return sublayers.attention_sublayer(x, *pairs[:5], lengths, heads, prefix)


def _sublayer_case(rng, kind, lengths, heads, d, prefix):
    """FD scenario for a sublayer; the prefix array enters times a constant
    0/1 mask that is 0 on the value blocks' exactly-zero rows, as their
    exact-zero mask is a step that finite differences would straddle."""
    lengths = np.asarray(lengths)
    rows = len(lengths) * int(lengths.max())
    arrays = _sublayer_arrays(rng, kind, rows, d, len(lengths), prefix)
    on = None
    if prefix is not None:
        mask = np.ones_like(arrays[-1])
        mask[np.all(arrays[-1][:, 2 * d:] == 0.0, axis=1), 2 * d:] = 0.0
        on = ad.Node(mask)
    w = rng.normal(size=(rows, d))

    def build(ls):
        leaves = ls if on is None else [*ls[:-1], ad.mul(ls[-1], on)]
        return sum_all(ad.mul(_sublayer(ad, kind, leaves, lengths, heads), ad.Node(w)))

    return build, arrays


def _primitive_cases(rng):
    """One FD scenario per differentiable primitive, at a random shape."""
    m, n = _rand_shape(rng)
    k = int(rng.integers(1, 5))
    x = rng.normal(size=(m, n))
    y = rng.normal(size=(m, n))
    cases = {
        "add": (lambda ls: sum_all(ad.add(ls[0], ls[1])), [x, y]),
        "mul": (lambda ls: sum_all(ad.mul(ls[0], ls[1])), [x, y]),
        "mul_broadcast_row": (
            lambda ls: sum_all(ad.mul(ls[0], ls[1])),
            [x, rng.normal(size=(1, n))],
        ),
        "mul_broadcast_col": (
            lambda ls: sum_all(ad.mul(ls[0], ls[1])),
            [x, rng.normal(size=(m, 1))],
        ),
        "add_broadcast_scalar": (
            lambda ls: sum_all(ad.add(ls[0], ls[1])),
            [x, rng.normal(size=(1, 1))],
        ),
        "smul": (lambda ls: sum_all(ad.smul(ls[0], -1.7)), [x]),
        "matmul": (
            lambda ls: sum_all(ad.matmul(ls[0], ls[1])),
            [rng.normal(size=(m, k)), rng.normal(size=(k, n))],
        ),
        "transpose": (
            lambda ls: sum_all(ad.mul(ad.transpose(ls[0]), ad.Node(y.T))),
            [x],
        ),
        "gather_rows": (
            lambda ls, idx=rng.integers(0, m, size=m + 2): sum_all(
                ad.gather_rows(ls[0], idx)
            ),
            [x],
        ),
        "l2_normalize_rows": (
            lambda ls: sum_all(ad.mul(ad.l2_normalize_rows(ls[0]), ad.Node(y))),
            [x + np.sign(x) * 0.2],
        ),
        "mean_pool": (
            lambda ls, w=_row_masks(rng, m, n), y=rng.normal(size=(m, k)): sum_all(
                ad.mul(ad.mean_pool(ls[0], w), ad.Node(y))
            ),
            [rng.normal(size=(m * n, k))],
        ),
        "row_dots": (
            lambda ls: sum_all(ad.mul(ad.row_dots(ls[0], ls[1], n), ad.Node(y))),
            [rng.normal(size=(m, k)), rng.normal(size=(m * n, k))],
        ),
    }
    cases["gather_rows_sum"] = (
        lambda ls, i=rng.integers(0, m, size=k + 2), j=rng.integers(0, k, size=k + 2),
        w=rng.normal(size=(k + 2, n)):
            sum_all(ad.mul(ad.gather_rows_sum(ls[0], i, ls[1], j), ad.Node(w))),
        [x, rng.normal(size=(k, n))],
    )
    lengths = rng.integers(1, 4, size=int(rng.integers(1, 4)))
    cases["attention_sublayer"] = _sublayer_case(rng, "attention", lengths, 2, 4, "zero rows")
    cases["ffn_sublayer"] = _sublayer_case(rng, "ffn", lengths, 2, 4, None)
    if n % 2 == 0:
        cases["paired_rotation"] = (
            lambda ls: sum_all(ad.mul(ad.paired_rotation(ls[0], ls[1]), ad.Node(y))),
            [x, rng.normal(size=(m, n)) + np.sign(rng.normal(size=(m, n))) * 0.3],
        )
    cases["info_nce"] = (
        lambda ls, keep=rng.random((m, m)) < 0.6, ir_keep=rng.random((m, k)) < 0.6:
            ad.info_nce(ls[0], ls[1], 0.1, keep, ((ls[2], None), (ls[3], ir_keep))),
        [rng.uniform(-1, 1, size=(m, m)), rng.uniform(-np.log(3.0), 0.0, size=(1, 1)),
         rng.uniform(-1, 1, size=(m, n)), rng.uniform(-1, 1, size=(m, k))],
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


class TestFusedMatchesComposite:
    """The fused encoder primitives against the compositions they replaced."""

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
            ad.backward(sum_all(ad.mul(out, w)))
            results.append((out.value, x.grad))
        (fused, fused_grad), (dense, dense_grad) = results
        np.testing.assert_allclose(fused, dense, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fused_grad, dense_grad, rtol=0, atol=1e-12)

    def test_row_dots_rejects_mismatched_rows(self):
        with pytest.raises(ValueError, match="row_dots"):
            ad.row_dots(ad.Node(np.ones((2, 3))), ad.Node(np.ones((5, 3))), 2)
        with pytest.raises(ValueError, match="row_dots"):
            ad.row_dots(ad.Node(np.ones((2, 3))), np.ones((5, 3)), 2)

    def test_row_dots_against_constant_rows_takes_one_parent(self):
        rng = np.random.default_rng(71)
        h, f = rng.normal(size=(3, 4)), rng.normal(size=(6, 4))
        w = ad.Node(rng.normal(size=(3, 2)))
        results = []
        for constant in (False, True):
            h_n, f_n = ad.Node(h), ad.Node(f)
            out = ad.row_dots(h_n, f if constant else f_n, 2)
            assert out._parents == ((h_n,) if constant else (h_n, f_n))
            ad.backward(sum_all(ad.mul(out, w)))
            results.append((out.value.tobytes(), h_n.grad.tobytes()))
        assert results[0] == results[1]


class TestSublayersMatchTheComposition:
    """Each sublayer node against the one-node-per-op composition it
    replaced, by the bytes of its value and of every leaf gradient."""

    LENGTHS = [4, 1, 3]  # padded to 4: a full, a length-1 and a middle sequence

    def _run(self, sublayers, kind, arrays, heads, recording):
        leaves = [ad.Node(a) for a in arrays]
        with contextlib.nullcontext() if recording else ad.no_grad():
            out = _sublayer(sublayers, kind, leaves, self.LENGTHS, heads)
        assert bool(out._parents) == recording
        if recording:
            w = np.random.default_rng(5).normal(size=out.value.shape)
            ad.backward(sum_all(ad.mul(out, ad.Node(w))))
        return [out.value.tobytes()] + [
            None if leaf.grad is None else leaf.grad.tobytes() for leaf in leaves]

    def _check(self, kind, heads, prefix, recording, seed):
        rng = np.random.default_rng(seed)
        rows = len(self.LENGTHS) * max(self.LENGTHS)
        arrays = _sublayer_arrays(rng, kind, rows, 8, len(self.LENGTHS), prefix)
        fused = self._run(ad, kind, arrays, heads, recording)
        composed = self._run(text_reference, kind, arrays, heads, recording)
        assert fused == composed
        if recording:
            assert all(grad is not None for grad in fused[1:])

    @pytest.mark.parametrize("recording", [True, False])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("prefix", [None, "on", "zero rows"])
    def test_attention_sublayer(self, prefix, heads, recording):
        self._check("attention", heads, prefix, recording, seed=90 + heads)

    @pytest.mark.parametrize("recording", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_ffn_sublayer(self, seed, recording):
        self._check("ffn", 1, None, recording, seed=95 + seed)

    def test_a_zero_prefix_row_takes_no_gradient(self):
        rng = np.random.default_rng(98)
        rows = len(self.LENGTHS) * max(self.LENGTHS)
        leaves = [ad.Node(a) for a in
                  _sublayer_arrays(rng, "attention", rows, 8, 3, "zero rows")]
        out = _sublayer(ad, "attention", leaves, self.LENGTHS, 2)
        ad.backward(sum_all(ad.mul(out, ad.Node(rng.normal(size=(rows, 8))))))
        prefix_grad = leaves[-1].grad
        assert not np.any(prefix_grad[1]) and not np.any(prefix_grad[:, :8])
        assert np.all(np.any(prefix_grad[[0, 2], 8:16], axis=1))
        assert np.all(np.any(prefix_grad[[0, 2], 16:], axis=1))

    @pytest.mark.parametrize("recording", [True, False])
    def test_gather_rows_sum(self, recording):
        rng = np.random.default_rng(99)
        tables = [rng.normal(size=(6, 5)), rng.normal(size=(4, 5))]
        indices = [[0, 5, 5, 2, 0, 3, 1], [3, 0, 3, 1, 2, 2, 0]]  # repeats accumulate
        results = []
        for gather_sum in (ad.gather_rows_sum, text_reference.gather_rows_sum):
            a, b = (ad.Node(t) for t in tables)
            with contextlib.nullcontext() if recording else ad.no_grad():
                out = gather_sum(a, indices[0], b, indices[1])
            if recording:
                ad.backward(sum_all(ad.mul(out, ad.Node(np.arange(35.0).reshape(7, 5)))))
            results.append([out.value.tobytes(), a.grad is None or a.grad.tobytes(),
                            b.grad is None or b.grad.tobytes()])
        assert results[0] == results[1]

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(97)
        arrays = _sublayer_arrays(rng, "attention", 8, 4, 2, "on")

        def attend(lengths=(4, 4), heads=2, swap=None):
            leaves = [ad.Node(a) for a in arrays]
            if swap is not None:
                leaves[swap[0]] = ad.Node(swap[1])
            return _sublayer(ad, "attention", leaves, lengths, heads)

        with pytest.raises(ValueError, match="lengths"):
            attend(lengths=(4, 5))
        with pytest.raises(ValueError, match="split"):
            attend(lengths=(1, 1, 1))
        with pytest.raises(ValueError, match="divisible"):
            attend(heads=3)
        with pytest.raises(ValueError, match="attention weight"):
            attend(swap=(3, np.ones((4, 3))))
        with pytest.raises(ValueError, match="linear shape mismatch"):
            attend(swap=(2, np.ones((1, 3))))
        with pytest.raises(ValueError, match="layer norm"):
            attend(swap=(9, np.ones((1, 3))))
        with pytest.raises(ValueError, match="prefix"):
            attend(swap=(11, np.ones((1, 12))))
        with pytest.raises(ValueError, match="prefix"):
            attend(swap=(11, np.ones((2, 11))))
        ffn = [ad.Node(a) for a in _sublayer_arrays(rng, "ffn", 8, 4, 2, None)]
        ffn[3] = ad.Node(np.ones((15, 4)))
        with pytest.raises(ValueError, match="linear shape mismatch"):
            _sublayer(ad, "ffn", ffn, None, None)
        table = ad.Node(np.ones((3, 2)))
        with pytest.raises(ValueError, match="gather_rows_sum"):
            ad.gather_rows_sum(table, [0, 1], table, [0])
        with pytest.raises(IndexError, match="out of range"):
            ad.gather_rows_sum(table, [0, 3], table, [0, 1])


class TestNoGrad:
    def test_nodes_built_inside_record_no_parents(self):
        a, b = ad.Node([[1.0, 2.0]]), ad.Node([[3.0, 4.0]])
        with ad.no_grad():
            out = ad.smul(ad.mul(a, b), 2.0)
        assert out._parents == () and out._vjp is None
        assert ad.mul(a, b)._parents == (a, b)

    def test_values_equal_the_recording_path(self):
        rng = np.random.default_rng(48)
        lengths = [3, 1, 2]
        x = ad.Node(rng.normal(size=(9, 4)))
        prefix = ad.Node(rng.normal(size=(3, 12)))
        weights = [[1, 1, 1], [1, 0, 0], [1, 1, 0]]
        feats = ad.Node(rng.normal(size=(6, 4)))
        attention = [ad.Node(a) for a in _sublayer_arrays(rng, "attention", 9, 4, 3, None)]
        ffn = [ad.Node(a) for a in _sublayer_arrays(rng, "ffn", 9, 4, 3, None)]

        def build():
            hidden = _sublayer(ad, "attention", [x] + attention[1:] + [prefix], lengths, 2)
            hidden = _sublayer(ad, "ffn", [hidden] + ffn[1:], lengths, 2)
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
