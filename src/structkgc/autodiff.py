"""Reverse-mode automatic differentiation on dense float64 matrices.

Every value in the graph is a 2-D numpy array: scalars are (1, 1), row
vectors (1, n).  A :class:`Node` records a value, its parents and a
vector-Jacobian callback; :func:`backward` walks the tape in reverse
topological order and accumulates a gradient on the leaves only, as
interior gradients are read by nothing but their own callbacks.  Tapes
are built per forward pass and dropped with the nodes; parameters are
long-lived leaves whose ``grad`` the optimizer consumes and resets.
Inside :func:`no_grad` nodes record no parents and no callbacks, so
values that are only read leave no tape behind.

Elementwise ops support the limited broadcasting the encoders need:
(m, n) against (m, 1), (1, n) or (1, 1).
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

DEFAULT_NORM_EPS = 1e-12

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class _Mode(threading.local):
    recording = True


_mode = _Mode()


@contextlib.contextmanager
def no_grad():
    """Build nodes without parents or vector-Jacobian callbacks.

    Values are computed exactly as when recording, but nothing built
    inside the block can be differentiated, and each intermediate is
    freed once the next op has consumed it.  Blocks nest; the previous
    mode comes back on exit, also when the block raises.  The mode is
    per thread.
    """
    previous = _mode.recording
    _mode.recording = False
    try:
        yield
    finally:
        _mode.recording = previous


def as_matrix(x) -> np.ndarray:
    """Coerce scalars / 1-D / 2-D array-likes to a float64 2-D array."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ValueError(f"only 2-D values are supported, got shape {a.shape}")
    return a


class Node:
    """One vertex of the differentiation graph.

    Leaves (parameters, constants) have no parents.  On a leaf ``grad`` is
    allocated lazily by :func:`backward` and accumulates across calls
    until reset; on a node with parents it stays ``None``.
    """

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, _parents=(), _vjp=None):
        self.value = as_matrix(value)
        self.grad = None
        if _mode.recording:
            self._parents = tuple(_parents)
            self._vjp = _vjp
        else:
            self._parents = ()
            self._vjp = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(shape={self.value.shape})"


class LoadedValues:
    """Stored arrays that a model's components take as their parameter
    values in place of a fresh init (see :func:`parameter`).

    ``take`` hands out the array stored under a name and records the
    shape the component expects there, so that a loader can compare the
    stored names and shapes with the expected ones once every component
    is built.  A name with no stored array gets an empty placeholder.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.arrays = arrays
        self.expected: dict[str, tuple[int, int]] = {}

    def take(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        self.expected[name] = shape
        return self.arrays.get(name, _NO_VALUE)


_NO_VALUE = np.zeros((0, 0))


def parameter(name: str, shape: tuple[int, int], init,
              loaded: LoadedValues | None = None) -> Node:
    """A parameter leaf holding ``init(rows, cols)``, or, when ``loaded``
    is given, its stored array for ``name``; then no init runs."""
    return Node(init(*shape) if loaded is None else loaded.take(name, shape))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _check_broadcast(a: Node, b: Node, op: str):
    sa, sb = a.value.shape, b.value.shape
    for da, db in zip(sa, sb):
        if da != db and da != 1 and db != 1:
            raise ValueError(f"{op} shape mismatch: {sa} vs {sb}")


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------

def add(a: Node, b: Node) -> Node:
    _check_broadcast(a, b, "add")
    return Node(
        a.value + b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)),
    )


def sub(a: Node, b: Node) -> Node:
    _check_broadcast(a, b, "sub")
    return Node(
        a.value - b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)),
    )


def mul(a: Node, b: Node) -> Node:
    _check_broadcast(a, b, "mul")
    return Node(
        a.value * b.value,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.value, a.value.shape),
            _unbroadcast(g * a.value, b.value.shape),
        ),
    )


def smul(a: Node, c: float) -> Node:
    c = float(c)
    return Node(a.value * c, (a,), lambda g: (g * c,))


def add_const(a: Node, c: float) -> Node:
    c = float(c)
    return Node(a.value + c, (a,), lambda g: (g,))


def exp(a: Node) -> Node:
    y = np.exp(a.value)
    return Node(y, (a,), lambda g: (g * y,))


def log(a: Node) -> Node:
    return Node(np.log(a.value), (a,), lambda g: (g / a.value,))


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


# ---------------------------------------------------------------------------
# structural primitives
# ---------------------------------------------------------------------------

def matmul(a: Node, b: Node) -> Node:
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.value.shape} x {b.value.shape}"
        )
    return Node(
        a.value @ b.value,
        (a, b),
        lambda g: (g @ b.value.T, a.value.T @ g),
    )


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


def transpose(a: Node) -> Node:
    return Node(a.value.T, (a,), lambda g: (g.T,))


def gather_rows(a: Node, indices) -> Node:
    """Row lookup (embedding gather); backward scatter-adds, so repeated
    indices accumulate."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("gather_rows expects a flat index list")
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
        raise IndexError(f"row index out of range for shape {a.value.shape}")

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, idx, g)
        return (out,)

    return Node(a.value[idx], (a,), vjp)


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
    return smul(sum_all(a), 1.0 / a.value.size)


# ---------------------------------------------------------------------------
# row-structured primitives
# ---------------------------------------------------------------------------

def l2_normalize_rows(a: Node, eps: float = DEFAULT_NORM_EPS) -> Node:
    """Scale each row to unit Euclidean norm.

    Rows with norm below ``eps`` are scaled by 1/eps instead of being
    normalized, keeping the map smooth near zero.
    """
    x = a.value
    norm = np.sqrt((x * x).sum(axis=1, keepdims=True))
    big = norm > eps
    denom = np.where(big, norm, eps)
    y = x / denom

    def vjp(g):
        inv = 1.0 / denom
        radial = (x * g).sum(axis=1, keepdims=True) * inv ** 3
        return (g * inv - x * radial * big,)

    return Node(y, (a,), vjp)


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


def mean_pool(x: Node, weights) -> Node:
    """Weighted mean of each sequence's rows; (B, d).

    ``x`` holds B sequences of L rows each as (B*L, d), sequence b owning
    rows b*L .. b*L + L - 1.  ``weights`` is (B, L) and non-negative, 0/1
    for a plain mean over the selected rows; row b of the output is
    sum_l weights[b, l] * x[b*L + l] / sum_l weights[b, l].
    """
    w = np.asarray(weights, dtype=np.float64)
    rows, d = x.value.shape
    if w.ndim != 2 or w.size != rows:
        raise ValueError(f"weights of shape {w.shape} do not split {rows} rows")
    b_count, seq_len = w.shape
    totals = w.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("mean_pool needs a positive weight in every sequence")
    share = w / totals
    out = (share[:, None, :] @ x.value.reshape(b_count, seq_len, d))[:, 0]
    return Node(out, (x,),
                lambda g: ((share[:, :, None] * g[:, None, :]).reshape(rows, d),))


def row_dots(h: Node, f: Node, m: int) -> Node:
    """Dot products of each row of ``h`` with its own ``m`` rows of ``f``.

    ``h`` is (B, d) and ``f`` is (B*m, d), rows b*m .. b*m + m - 1 being
    row b's; the (B, m) output holds h[b] . f[b*m + j] at (b, j).
    """
    b_count, d = h.value.shape
    if m < 1 or f.value.shape != (b_count * m, d):
        raise ValueError(
            f"row_dots needs ({b_count} * {m}, {d}) rows, got {f.value.shape}"
        )
    hv = h.value
    fv = f.value.reshape(b_count, m, d)

    def vjp(g):
        return ((g[:, None, :] @ fv)[:, 0],
                (g[:, :, None] * hv[:, None, :]).reshape(b_count * m, d))

    return Node((fv @ hv[:, :, None])[:, :, 0], (h, f), vjp)


def paired_rotation(h: Node, phases: Node, eps: float = DEFAULT_NORM_EPS) -> Node:
    """Rotate each complex pair of ``h`` by the phase pairs of ``phases``.

    Columns 2k and 2k + 1 of a row are the real and imaginary parts of
    its k-th pair.  Each phase pair is scaled to unit modulus first (a
    pair with modulus below ``eps`` is scaled by 1/eps instead), so the
    rotation is an isometry whatever the stored parameter scale.  The
    output is C-ordered.
    """
    m, n = h.value.shape
    if phases.value.shape != (m, n):
        raise ValueError(
            f"paired rotation shape mismatch: {h.value.shape} vs {phases.value.shape}"
        )
    if n % 2 != 0:
        raise ValueError(f"paired rotation needs an even width, got {n}")
    a = h.value.reshape(m, n // 2, 2)
    x = phases.value.reshape(m, n // 2, 2)
    norm = np.sqrt((x * x).sum(axis=2, keepdims=True))
    big = norm > eps
    denom = np.where(big, norm, eps)
    u = x / denom
    a_re, a_im, u_re, u_im = a[..., 0], a[..., 1], u[..., 0], u[..., 1]
    out = np.empty((m, n // 2, 2))
    out[..., 0] = a_re * u_re - a_im * u_im
    out[..., 1] = a_re * u_im + a_im * u_re

    def vjp(g):
        g = g.reshape(m, n // 2, 2)
        g_re, g_im = g[..., 0], g[..., 1]
        d_a = np.empty_like(out)
        d_a[..., 0] = g_re * u_re + g_im * u_im
        d_a[..., 1] = g_im * u_re - g_re * u_im
        d_u = np.empty_like(out)
        d_u[..., 0] = g_re * a_re + g_im * a_im
        d_u[..., 1] = g_im * a_re - g_re * a_im
        inv = 1.0 / denom
        radial = (x * d_u).sum(axis=2, keepdims=True) * inv ** 3
        return d_a.reshape(m, n), (d_u * inv - x * radial * big).reshape(m, n)

    return Node(out.reshape(m, n), (h, phases), vjp)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _toposort(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents before consumers


def backward(root: Node) -> None:
    """Accumulate d(root)/d(leaf) into ``grad`` for every reachable leaf.

    The root must be scalar-shaped.  Leaves are the nodes with no
    recorded parents (parameters and constants); an interior node's
    gradient lives only until its vector-Jacobian callback has used it,
    and its ``grad`` stays ``None``.  Calling backward twice without
    resetting grads adds the same contribution again.
    """
    if root.value.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")
    order = _toposort(root)
    # pass-local gradients keep repeated backward() calls additive
    pending: dict[int, np.ndarray] = {id(root): np.ones((1, 1))}
    for node in reversed(order):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if not node._parents:
            node.grad = g if node.grad is None else node.grad + g
            continue
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            key = id(parent)
            if key in pending:
                pending[key] = pending[key] + pg
            else:
                pending[key] = pg
