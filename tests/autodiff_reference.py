"""Tape primitives that only the reference paths in ``tests/`` run.

The fused ``attention``, ``paired_rotation`` and batched loss replaced
the compositions that needed these, so ``structkgc.autodiff`` no longer
carries them: ``text_reference`` joins heads with ``concat_rows`` and
weights them with ``softmax_rows``, ``rotation_reference`` views phase
pairs through ``reshape`` and stacks real and imaginary parts with
``concat_rows``, and ``loss_reference`` stacks per-query sums with
``concat_rows``.  ``autodiff.info_nce`` replaced the loss composition
of ``sub``, ``add_const``, ``log``, ``sum_axis`` and ``mean_all``, and,
as it reads the log-temperature, the ``exp`` that made the inverse
temperature; ``sum_all`` turns a test's matrix output into a scalar to
differentiate.  ``gather_cols`` sliced each prefix key and value out of
the projection before ``autodiff.attention_sublayer`` read them as
column blocks; the per-head reference encoder and ``rotation_reference``
still slice with it.  The transformer sublayers of ``structkgc.autodiff``
replaced ``linear``, ``gelu``, ``layer_norm_rows`` and ``attention``,
one node each; ``text_reference.attention_sublayer`` and
``ffn_sublayer`` compose them, as the sublayers' byte-for-byte
reference.  Each has a hand-written VJP that ``test_autodiff_reference``
checks against finite differences.

``tape_arrays`` lists the arrays a tape holds, for tests that pin what
a training step keeps until its backward pass.

``backward`` is the backward loop as it was when every node of the tape
kept a ``grad``; ``checked_backward`` runs it beside
``structkgc.autodiff.backward`` on the same graph and asserts that every
leaf gets the same gradient bytes and no interior node a gradient.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from structkgc import autodiff as ad
from structkgc.autodiff import Node

_leaf_backward = ad.backward
_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def exp(a: Node) -> Node:
    y = np.exp(a.value)
    return Node(y, (a,), lambda g: (g * y,))


def gather_cols(a: Node, indices) -> Node:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("gather_cols expects a flat index list")
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[1]):
        raise IndexError(f"column index out of range for shape {a.value.shape}")

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, (slice(None), idx), g)
        return (out,)

    return Node(a.value[:, idx], (a,), vjp)


def sub(a: Node, b: Node) -> Node:
    ad._check_broadcast(a, b, "sub")
    return Node(
        a.value - b.value,
        (a, b),
        lambda g: (ad._unbroadcast(g, a.value.shape), ad._unbroadcast(-g, b.value.shape)),
    )


def add_const(a: Node, c: float) -> Node:
    c = float(c)
    return Node(a.value + c, (a,), lambda g: (g,))


def log(a: Node) -> Node:
    return Node(np.log(a.value), (a,), lambda g: (g / a.value,))


def sum_all(a: Node) -> Node:
    shape = a.value.shape
    return Node(
        a.value.sum().reshape(1, 1),
        (a,),
        lambda g: (np.broadcast_to(g, shape).copy(),),
    )


def sum_axis(a: Node, axis: int) -> Node:
    """Sum along one axis, keeping it as a broadcastable singleton."""
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    shape = a.value.shape
    return Node(
        a.value.sum(axis=axis, keepdims=True),
        (a,),
        lambda g: (np.broadcast_to(g, shape).copy(),),
    )


def mean_all(a: Node) -> Node:
    return ad.smul(sum_all(a), 1.0 / a.value.size)


def reshape(a: Node, rows: int, cols: int) -> Node:
    if rows * cols != a.value.size:
        raise ValueError(f"cannot reshape {a.value.shape} to ({rows}, {cols})")
    shape = a.value.shape
    return Node(a.value.reshape(rows, cols), (a,), lambda g: (g.reshape(shape),))


def concat_rows(parts: Sequence[Node]) -> Node:
    parts = list(parts)
    if not parts:
        raise ValueError("concat_rows needs at least one part")
    widths = {p.value.shape[1] for p in parts}
    if len(widths) != 1:
        raise ValueError(f"concat_rows column mismatch: {sorted(widths)}")
    sizes = [p.value.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return Node(np.concatenate([p.value for p in parts], axis=0), parts, vjp)


def softmax_rows(a: Node) -> Node:
    """Row softmax with max-subtraction; every output row sums to 1."""
    z = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return ((g - (g * y).sum(axis=1, keepdims=True)) * y,)

    return Node(y, (a,), vjp)


def linear(x: Node, w: Node, b: Node) -> Node:
    """The affine map ``x @ w + b`` as one node; ``b`` is a (1, n) row.

    Values and gradients are those of ``add(matmul(x, w), b)``.
    """
    if x.value.shape[1] != w.value.shape[0] or b.value.shape != (1, w.value.shape[1]):
        raise ValueError(
            f"linear shape mismatch: {x.value.shape} x {w.value.shape} + {b.value.shape}"
        )
    out = x.value @ w.value
    out += b.value                      # x @ w + b, with no second (m, n) array
    return Node(
        out,
        (x, w, b),
        lambda g: (g @ w.value.T, x.value.T @ g, g.sum(axis=0, keepdims=True)),
    )


def gelu(a: Node) -> Node:
    """Exact Gaussian-error-function GELU (smooth, finite-difference safe).

    The Gaussian pdf is only needed by the derivative, so only the
    vector-Jacobian callback computes it.  scipy is imported here, by the
    text path only, so a process that never encodes text never loads it.
    """
    from scipy.special import erf

    x = a.value
    cdf = x / _SQRT2                    # 0.5 * (1.0 + erf(x / sqrt 2)), in place
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def vjp(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return (g * (cdf + x * pdf),)

    return Node(x * cdf, (a,), vjp)


def layer_norm_rows(a: Node, gain: Node, bias: Node, eps: float = 1e-5) -> Node:
    """Per-row standardization followed by a learned (1, n) affine map.

    The variance is the biased one, over each row's n entries.
    """
    x = a.value
    n = x.shape[1]
    if gain.value.shape != (1, n) or bias.value.shape != (1, n):
        raise ValueError(
            f"layer norm of width {n} got gain {gain.value.shape} and bias "
            f"{bias.value.shape}"
        )
    xc = x - x.sum(axis=1, keepdims=True) * (1.0 / n)
    inv_std = ((xc * xc).sum(axis=1, keepdims=True) * (1.0 / n) + eps) ** -0.5
    x_hat = xc * inv_std

    def vjp(g):
        d_hat = g * gain.value
        d_x = inv_std * (d_hat - d_hat.mean(axis=1, keepdims=True)
                         - x_hat * (d_hat * x_hat).mean(axis=1, keepdims=True))
        return (d_x, (g * x_hat).sum(axis=0, keepdims=True),
                g.sum(axis=0, keepdims=True))

    return Node(x_hat * gain.value + bias.value, (a, gain, bias), vjp)


def attention(q: Node, k: Node, v: Node, lengths, heads: int,
              prefix: tuple[Node, Node] | None = None) -> Node:
    """Multi-head scaled dot-product self-attention over padded sequences.

    ``q``, ``k`` and ``v`` are (B*L, d) rows of B sequences padded to a
    common length L; sequence b owns rows b*L .. b*L + L - 1, and its
    keys at or past ``lengths[b]`` are masked out.  ``prefix`` is an
    optional (key, value) pair of (B, d) nodes whose row b is prepended
    to sequence b's keys and values.  A prefix row whose value is
    exactly zero is masked for its sequence, so it takes no attention
    and gets no gradient.  Head h works on columns h*d/heads ..
    (h+1)*d/heads - 1 with scale 1/sqrt(d/heads); the output is (B*L, d)
    with the heads side by side, like the inputs.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    rows, d = q.value.shape
    b_count = len(lengths)
    if b_count == 0 or rows % b_count != 0:
        raise ValueError(f"{rows} rows do not split into {b_count} sequences")
    seq_len = rows // b_count
    if k.value.shape != (rows, d) or v.value.shape != (rows, d):
        raise ValueError(
            f"attention shape mismatch: {q.value.shape}, {k.value.shape}, "
            f"{v.value.shape}"
        )
    if lengths.min() < 1 or lengths.max() > seq_len:
        raise ValueError(f"sequence lengths must lie in [1, {seq_len}]")
    if d % heads != 0:
        raise ValueError(f"width {d} not divisible by {heads} heads")
    d_k = d // heads
    scale = 1.0 / np.sqrt(d_k)

    def split(x):  # (B*L, d) -> (B, H, L, d_k)
        return x.reshape(b_count, seq_len, heads, d_k).transpose(0, 2, 1, 3)

    def merge(x):  # (B, H, L, d_k) -> (B*L, d)
        return x.transpose(0, 2, 1, 3).reshape(rows, d)

    if prefix is None:  # a masked zero row: same arithmetic as a zero prefix
        k_pre = v_pre = np.zeros((b_count, d))
    else:
        k_pre, v_pre = prefix[0].value, prefix[1].value
        if k_pre.shape != (b_count, d) or v_pre.shape != (b_count, d):
            raise ValueError(
                f"prefix shapes {k_pre.shape}, {v_pre.shape} do not match "
                f"({b_count}, {d})"
            )
    # key/value slot 0 is the prefix, slots 1..L the sequence positions
    keys = np.concatenate([k_pre.reshape(b_count, heads, 1, d_k), split(k.value)], axis=2)
    values = np.concatenate([v_pre.reshape(b_count, heads, 1, d_k), split(v.value)], axis=2)
    queries = split(q.value)
    keep = np.empty((b_count, 1, 1, seq_len + 1), dtype=bool)
    keep[:, 0, 0, 0] = np.any(v_pre != 0.0, axis=1)  # exact zero means off
    keep[:, 0, 0, 1:] = np.arange(seq_len) < lengths[:, None]
    logits = np.where(keep, (queries @ keys.transpose(0, 1, 3, 2)) * scale, -np.inf)
    e = np.exp(logits - logits.max(axis=3, keepdims=True))
    probs = e / e.sum(axis=3, keepdims=True)
    out = merge(probs @ values)

    def vjp(g):
        g = split(g)
        d_values = probs.transpose(0, 1, 3, 2) @ g
        d_probs = g @ values.transpose(0, 1, 3, 2)
        d_logits = (d_probs - (d_probs * probs).sum(axis=3, keepdims=True)) * probs * scale
        d_queries = d_logits @ keys
        d_keys = d_logits.transpose(0, 1, 3, 2) @ queries
        grads = (merge(d_queries), merge(d_keys[:, :, 1:]), merge(d_values[:, :, 1:]))
        if prefix is None:
            return grads
        return grads + (d_keys[:, :, 0].reshape(b_count, d),
                        d_values[:, :, 0].reshape(b_count, d))

    parents = (q, k, v) if prefix is None else (q, k, v, prefix[0], prefix[1])
    return Node(out, parents, vjp)


def backward(root: Node) -> None:
    """Accumulate d(root)/d(node) into ``grad`` for every reachable node,
    interior nodes included."""
    if root.value.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")
    order = ad._toposort(root)
    pending: dict[int, np.ndarray] = {id(root): np.ones((1, 1))}
    for node in reversed(order):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            key = id(parent)
            if key in pending:
                pending[key] = pending[key] + pg
            else:
                pending[key] = pg


def checked_backward(root: Node) -> None:
    """``structkgc.autodiff.backward``, checked against :func:`backward`.

    The reference runs first from the leaves' current grads; those grads
    are then put back, interior grads cleared, and the leaf-only pass
    runs.  Leaf grads must match byte for byte, interior grads stay None.
    """
    order = ad._toposort(root)
    leaves = [node for node in order if not node._parents]
    interior = [node for node in order if node._parents]
    assert all(node.grad is None for node in interior)
    before = [node.grad for node in leaves]
    backward(root)
    expected = [node.grad for node in leaves]
    for node, grad in zip(leaves, before):
        node.grad = grad
    for node in interior:
        node.grad = None
    _leaf_backward(root)
    for node, want in zip(leaves, expected):
        assert (node.grad is None) == (want is None)
        if want is not None:
            assert node.grad.shape == want.shape
            assert node.grad.tobytes() == want.tobytes()
    assert all(node.grad is None for node in interior)


def tape_arrays(root: Node) -> dict[int, np.ndarray]:
    """The distinct arrays the tape below ``root`` holds, by ``id``.

    Walks ``ad._toposort(root)`` and collects every node's value and every
    array its VJP closure reaches through cells, tuples, lists and nested
    functions.  A view counts as the array that owns its memory, so a
    buffer is counted once however many views of it are kept.
    """
    found: dict[int, np.ndarray] = {}
    seen: set[int] = set()

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj
        elif isinstance(obj, Node):
            visit(obj.value)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)
        elif callable(obj) and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                try:
                    visit(cell.cell_contents)
                except ValueError:  # an empty cell
                    pass

    for node in ad._toposort(root):
        visit(node.value)
        if node._vjp is not None:
            visit(node._vjp)
    return found
