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

The text encoder's transformer layer is two nodes: an attention
sublayer and a feed-forward sublayer, each a whole post-norm residual
block.  Each keeps only the arrays its vector-Jacobian callback reads,
recomputing what is cheap to recompute, so a training step's tape holds
no projection, residual sum or activation that backward would not read.
The InfoNCE loss is one node too, its masks plain arrays, so no constant
of a training step is a leaf that takes a gradient.  No node only slices
or rescales: an attention sublayer reads its prefix as column blocks of
one projection node, and the loss reads the log-temperature leaf itself.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

DEFAULT_NORM_EPS = 1e-12
_LN_EPS = 1e-5

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


def _as_matrix(x) -> np.ndarray:
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
        self.value = _as_matrix(value)
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


def transpose(a: Node) -> Node:
    return Node(a.value.T, (a,), lambda g: (g.T,))


def _row_index(a: Node, indices) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("gather_rows expects a flat index list")
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
        raise IndexError(f"row index out of range for shape {a.value.shape}")
    return idx


def _scatter_rows(g: np.ndarray, idx: np.ndarray, table: Node) -> np.ndarray:
    """The gradient of ``table[idx]``: repeated indices accumulate."""
    out = np.zeros_like(table.value)
    np.add.at(out, idx, g)
    return out


def gather_rows(a: Node, indices) -> Node:
    """Row lookup (embedding gather); backward scatter-adds, so repeated
    indices accumulate."""
    idx = _row_index(a, indices)
    return Node(a.value[idx], (a,), lambda g: (_scatter_rows(g, idx, a),))


def gather_rows_sum(a: Node, a_indices, b: Node, b_indices) -> Node:
    """``a[a_indices] + b[b_indices]`` as one node, such as a token plus a
    position embedding lookup.

    Values and gradients are those of ``add(gather_rows(a, a_indices),
    gather_rows(b, b_indices))``, but the node keeps only the indices:
    neither gathered array outlives the forward pass.
    """
    a_idx, b_idx = _row_index(a, a_indices), _row_index(b, b_indices)
    if a_idx.shape != b_idx.shape or a.value.shape[1] != b.value.shape[1]:
        raise ValueError(
            f"gather_rows_sum shape mismatch: {len(a_idx)} rows of {a.value.shape} "
            f"and {len(b_idx)} rows of {b.value.shape}"
        )
    out = a.value[a_idx]
    out += b.value[b_idx]
    return Node(out, (a, b),
                lambda g: (_scatter_rows(g, a_idx, a), _scatter_rows(g, b_idx, b)))


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


def row_dots(h: Node, f, m: int) -> Node:
    """Dot products of each row of ``h`` with its own ``m`` rows of ``f``.

    ``h`` is (B, d) and ``f`` is (B*m, d), rows b*m .. b*m + m - 1 being
    row b's; the (B, m) output holds h[b] . f[b*m + j] at (b, j).  ``f``
    is a node, or an array of constant rows that takes no gradient.
    """
    constant = not isinstance(f, Node)
    fv = _as_matrix(f) if constant else f.value
    b_count, d = h.value.shape
    if m < 1 or fv.shape != (b_count * m, d):
        raise ValueError(
            f"row_dots needs ({b_count} * {m}, {d}) rows, got {fv.shape}"
        )
    hv = h.value
    fv = fv.reshape(b_count, m, d)

    def vjp(g):
        d_h = (g[:, None, :] @ fv)[:, 0]
        if constant:
            return (d_h,)
        return d_h, (g[:, :, None] * hv[:, None, :]).reshape(b_count * m, d)

    return Node((fv @ hv[:, :, None])[:, :, 0], (h,) if constant else (h, f), vjp)


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
# transformer sublayers
# ---------------------------------------------------------------------------

def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` for a (1, n) row ``b``, with no second (m, n) array."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ValueError(f"linear shape mismatch: {x.shape} x {w.shape} + {b.shape}")
    out = x @ w
    out += b
    return out


def _affine_grads(g: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients of ``x @ w + b`` with respect to x, w and b."""
    return g @ w.T, x.T @ g, g.sum(axis=0, keepdims=True)


def _layer_norm(s: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Per-row standardization of ``s`` (biased variance over each row)
    followed by ``* gain + bias``: the output, x-hat and 1/sigma."""
    n = s.shape[1]
    if gain.shape != (1, n) or bias.shape != (1, n):
        raise ValueError(
            f"layer norm of width {n} got gain {gain.shape} and bias {bias.shape}"
        )
    x_hat = s - s.sum(axis=1, keepdims=True) * (1.0 / n)
    inv_std = ((x_hat * x_hat).sum(axis=1, keepdims=True) * (1.0 / n) + _LN_EPS) ** -0.5
    x_hat *= inv_std
    out = x_hat * gain
    out += bias
    return out, x_hat, inv_std


def _layer_norm_grads(g: np.ndarray, gain: np.ndarray, x_hat: np.ndarray,
                      inv_std: np.ndarray):
    """Gradients of :func:`_layer_norm` with respect to s, gain and bias."""
    d_hat = g * gain
    # inv_std * (d_hat - mean(d_hat) - x_hat * mean(d_hat * x_hat)), in place
    d_s = d_hat - d_hat.mean(axis=1, keepdims=True)
    d_s -= x_hat * (d_hat * x_hat).mean(axis=1, keepdims=True)
    del d_hat
    d_s *= inv_std
    return d_s, (g * x_hat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)


def attention_sublayer(x: Node, query: tuple[Node, Node], key: tuple[Node, Node],
                       value: tuple[Node, Node], output: tuple[Node, Node],
                       norm: tuple[Node, Node], lengths, heads: int,
                       prefix: tuple[Node, int] | None = None) -> Node:
    """A post-norm self-attention sublayer as one node:
    ``LN(x + attention(x W_q + b_q, x W_k + b_k, x W_v + b_v) W_o + b_o)``.

    ``query``, ``key``, ``value`` and ``output`` are (W, b) pairs of a
    (d, d) matrix and a (1, d) row, ``norm`` the layer norm's (gain,
    bias) rows.  ``x`` is (B*L, d), the rows of B sequences padded to a
    common length L; sequence b owns rows b*L .. b*L + L - 1, and its
    keys at or past ``lengths[b]`` are masked out.  ``prefix`` is an
    optional (node, start) pair: row b of the (B, n) node's columns start
    .. start + d - 1 and of the d columns after them is prepended to
    sequence b's keys and values.  A prefix row whose value is exactly
    zero is masked for its sequence, so it takes no attention and gets
    no gradient.  Head h works on columns h*d/heads .. (h+1)*d/heads - 1
    with scale 1/sqrt(d/heads).

    Values and gradients have the bytes of the composition of one node
    per linear map, column gather, attention, residual sum and layer
    norm.  The node keeps only what its backward reads: the queries, the
    prefixed keys and values, the attention probabilities and context,
    and the layer norm's x-hat and 1/sigma; ``x`` is its parent.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    xv = x.value
    rows, d = xv.shape
    b_count = len(lengths)
    if b_count == 0 or rows % b_count != 0:
        raise ValueError(f"{rows} rows do not split into {b_count} sequences")
    seq_len = rows // b_count
    if lengths.min() < 1 or lengths.max() > seq_len:
        raise ValueError(f"sequence lengths must lie in [1, {seq_len}]")
    if d % heads != 0:
        raise ValueError(f"width {d} not divisible by {heads} heads")
    for w, _ in (query, key, value, output):
        if w.value.shape != (d, d):
            raise ValueError(f"attention weight {w.value.shape} for width {d}")
    d_k = d // heads
    scale = 1.0 / np.sqrt(d_k)

    def split(a):  # (B*L, d) -> (B, H, L, d_k)
        return a.reshape(b_count, seq_len, heads, d_k).transpose(0, 2, 1, 3)

    def merge(a):  # (B, H, L, d_k) -> (B*L, d)
        return a.transpose(0, 2, 1, 3).reshape(rows, d)

    if prefix is None:  # a masked zero row: same arithmetic as a zero prefix
        k_pre = v_pre = np.zeros((b_count, d))
    else:
        flat, start = prefix[0].value, prefix[1]
        if flat.shape[0] != b_count or not 0 <= start <= flat.shape[1] - 2 * d:
            raise ValueError(
                f"prefix blocks at column {start} of {flat.shape} do not hold "
                f"two ({b_count}, {d}) blocks"
            )
        k_pre, v_pre = flat[:, start:start + d], flat[:, start + d:start + 2 * d]
    queries = split(_affine(xv, query[0].value, query[1].value))
    # key/value slot 0 is the prefix, slots 1..L the sequence positions
    keys = np.concatenate([k_pre.reshape(b_count, heads, 1, d_k),
                           split(_affine(xv, key[0].value, key[1].value))], axis=2)
    values = np.concatenate([v_pre.reshape(b_count, heads, 1, d_k),
                             split(_affine(xv, value[0].value, value[1].value))], axis=2)
    keep = np.empty((b_count, 1, 1, seq_len + 1), dtype=bool)
    keep[:, 0, 0, 0] = np.any(v_pre != 0.0, axis=1)  # exact zero means off
    keep[:, 0, 0, 1:] = np.arange(seq_len) < lengths[:, None]
    logits = np.where(keep, (queries @ keys.transpose(0, 1, 3, 2)) * scale, -np.inf)
    e = np.exp(logits - logits.max(axis=3, keepdims=True))
    del logits
    probs = e / e.sum(axis=3, keepdims=True)
    del e
    context = merge(probs @ values)
    s = _affine(context, output[0].value, output[1].value)
    if not _mode.recording:  # no tape reads them again
        del queries, keys, values, probs, context
    s += xv
    out, x_hat, inv_std = _layer_norm(s, norm[0].value, norm[1].value)

    def vjp(g):
        d_s, d_gain, d_bias = _layer_norm_grads(g, norm[0].value, x_hat, inv_std)
        d_context, d_wo, d_bo = _affine_grads(d_s, context, output[0].value)
        d_context = split(d_context)
        d_values = probs.transpose(0, 1, 3, 2) @ d_context
        # d_probs, turned into d_logits in place:
        # (d_probs - (d_probs * probs).sum(axis=3)) * probs * scale
        d_logits = d_context @ values.transpose(0, 1, 3, 2)
        del d_context
        d_logits -= (d_logits * probs).sum(axis=3, keepdims=True)
        d_logits *= probs
        d_logits *= scale
        d_queries = d_logits @ keys
        d_keys = d_logits.transpose(0, 1, 3, 2) @ queries
        del d_logits
        grads = []
        # x's residual gradient first, then its query, key and value ones
        for (w, _), d_proj in zip((query, key, value),
                                  (d_queries, d_keys[:, :, 1:], d_values[:, :, 1:])):
            d_x, d_w, d_b = _affine_grads(merge(d_proj), xv, w.value)
            d_s += d_x
            grads += [d_w, d_b]
        grads = [d_s, *grads, d_wo, d_bo, d_gain, d_bias]
        if prefix is not None:  # added into zeros, as a column gather scatters
            d_flat = np.zeros_like(flat)
            d_flat[:, start:start + d] += d_keys[:, :, 0].reshape(b_count, d)
            d_flat[:, start + d:start + 2 * d] += d_values[:, :, 0].reshape(b_count, d)
            grads.append(d_flat)
        return grads

    parents = (x, *query, *key, *value, *output, *norm)
    return Node(out, parents if prefix is None else (*parents, prefix[0]), vjp)


def ffn_sublayer(x: Node, inner: tuple[Node, Node], outer: tuple[Node, Node],
                 norm: tuple[Node, Node]) -> Node:
    """A post-norm feed-forward sublayer as one node:
    ``LN(x + gelu(x W_1 + b_1) W_2 + b_2)``.

    ``inner`` and ``outer`` are the (W, b) pairs of the two linear maps,
    ``norm`` the layer norm's (gain, bias) rows.  GELU is the exact
    Gaussian-error-function one, x * Phi(x).  Values and gradients have
    the bytes of the composition of one node per linear map, GELU,
    residual sum and layer norm.  The node keeps only what its backward
    reads: the pre-activation h, its Gaussian CDF and the layer norm's
    x-hat and 1/sigma; ``x`` is its parent, and backward recomputes the
    GELU output as h * CDF.  scipy is imported here, by the text path
    only, so a process that never encodes text never loads it.
    """
    from scipy.special import erf

    xv = x.value
    h = _affine(xv, inner[0].value, inner[1].value)
    cdf = h / _SQRT2                    # 0.5 * (1.0 + erf(h / sqrt 2)), in place
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    act = h * cdf
    if not _mode.recording:  # no tape reads them again
        del h, cdf
    s = _affine(act, outer[0].value, outer[1].value)
    del act
    s += xv
    out, x_hat, inv_std = _layer_norm(s, norm[0].value, norm[1].value)

    def vjp(g):
        d_s, d_gain, d_bias = _layer_norm_grads(g, norm[0].value, x_hat, inv_std)
        d_act, d_w2, d_b2 = _affine_grads(d_s, h * cdf, outer[0].value)
        # d_act * (cdf + h * pdf), pdf = exp(-h^2 / 2) / sqrt(2 pi), built in
        # one array: each step is the composition's product or sum, operands
        # swapped
        d_h = h * -0.5
        d_h *= h
        np.exp(d_h, out=d_h)
        d_h *= _INV_SQRT_2PI
        d_h *= h
        d_h += cdf
        d_h *= d_act
        del d_act
        d_x, d_w1, d_b1 = _affine_grads(d_h, xv, inner[0].value)
        d_s += d_x  # x's residual gradient first
        return d_s, d_w1, d_b1, d_w2, d_b2, d_gain, d_bias

    return Node(out, (x, *inner, *outer, *norm), vjp)


# ---------------------------------------------------------------------------
# contrastive loss
# ---------------------------------------------------------------------------

def info_nce(scores: Node, log_tau: Node, margin: float, keep,
             extra: tuple = ()) -> Node:
    """The mean over rows b of -log(e^pos_b / (e^pos_b + negatives_b)),
    as one node.

    ``scores`` is (B, B) with the positives on the diagonal and
    ``log_tau`` the (1, 1) log-temperature, inv = e^(-log_tau): pos_b =
    (scores[b, b] - margin) * inv.  The negatives of row b are
    e^(scores[b, j] * inv) for each j != b where the (B, B) boolean
    ``keep`` holds, then, for each (dots, mask) pair of ``extra`` in
    order, e^(dots * inv) for a (B, m) node of row b's dot products with
    m more negatives, where the (B, m) ``mask`` holds (None keeps them all).

    Value and gradients have the bytes of the composition of one node per
    op: inv a negation and an exponential, the positive picked by a
    product with the identity and a row sum, each mask a 0/1 product, the
    denominator summed from e^pos and then each row sum of negatives in
    order, the mean a sum times 1/B.  The node keeps only what its
    backward reads: the masked exponentials, e^pos, the denominator, the
    shifted positives and inv.  Backward reaches its parents in the
    composition's order (the extras first, ``scores`` last), so gradients
    meet in shared nodes in the same order too.
    """
    s = scores.value
    n = s.shape[0]
    if s.shape != (n, n) or log_tau.value.shape != (1, 1):
        raise ValueError(f"info_nce needs (B, B) scores and a (1, 1) log-temperature, "
                         f"got {s.shape} and {log_tau.value.shape}")
    inv = np.exp(log_tau.value * -1.0)
    keep = np.array(keep, dtype=bool)
    negatives = [(scores, keep), *extra]
    for node, mask in negatives:
        if node.value.shape[0] != n or (mask is not None
                                        and np.shape(mask) != node.value.shape):
            raise ValueError(f"negatives {node.value.shape} with mask "
                             f"{np.shape(mask)} for {n} rows")
    np.fill_diagonal(keep, False)  # the positive is never a negative

    shifted = (s * np.eye(n)).sum(axis=1, keepdims=True) + float(-margin)
    pos_logit = shifted * inv
    exp_pos = np.exp(pos_logit)
    denom, terms = exp_pos, []
    for node, mask in negatives:
        t = np.exp(node.value * inv)
        if mask is not None:
            t *= mask
        denom = denom + t.sum(axis=1, keepdims=True)
        terms.append(t)
    value = (np.log(denom) - pos_logit).sum().reshape(1, 1) * (1.0 / n)
    nodes = [node for node, _ in negatives]

    def vjp(g):
        g_row = g * (1.0 / n)  # each row's share of the mean
        g_denom = g_row / denom
        g_pos = -g_row + g_denom * exp_pos
        grads, d_inv = [], []
        for node, t in zip(nodes, terms):
            d = g_denom * t  # g * mask * e, as t is e * mask
            d_inv.append(_unbroadcast(d * node.value, inv.shape))
            d *= inv
            grads.append(d)
        d_inv.append(_unbroadcast(g_pos * shifted, inv.shape))
        grads[0] += (g_pos * inv) * np.eye(n)
        return (*grads[1:], (sum(d_inv[1:], d_inv[0]) * inv) * -1.0, grads[0])

    return Node(value, (*nodes[1:], log_tau, scores), vjp)


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
