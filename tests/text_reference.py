"""The per-sequence, per-head text encoder that the fused pass replaced,
the composite layer norm and dense-mask pooling it was built from, and
the one-node-per-op sublayers that ``ad.attention_sublayer``,
``ad.ffn_sublayer`` and ``ad.gather_rows_sum`` replaced.

The encoder encodes one sequence at a time, slicing every head and
every layer's prefix key and value out with ``gather_cols`` and joining
the heads with ``concat_rows``, and drops a layer's prefix when its
value vector is exactly zero.  Its projections are a ``matmul`` node
followed by a bias ``add``, its layer norm is the ten-node composition
below and its pooling multiplies by a 0/1 mask matrix.  Tests pin the
fused ``TextEncoder.encode``, ``linear``, ``layer_norm_rows`` and
``ad.mean_pool`` to them, values and gradients.

``attention_sublayer``, ``ffn_sublayer`` and ``gather_rows_sum`` take
the arguments of their ``structkgc.autodiff`` namesakes and build one
node per linear map, attention, GELU, residual sum, layer norm and
gather from ``autodiff_reference``, the prefix key and value blocks one
``gather_cols`` each; ``use_compositions`` patches them in, so
``TextEncoder.encode`` runs the composition the sublayers replaced,
which they must match byte for byte.
"""

import numpy as np

from structkgc import autodiff as ad

import autodiff_reference as ref
from autodiff_reference import add_const, concat_rows, gather_cols, softmax_rows, sub, sum_axis


def power(a, p):
    """Elementwise a ** p as a tape node."""
    p = float(p)
    return ad.Node(a.value ** p, (a,), lambda g: (g * p * a.value ** (p - 1.0),))


def layer_norm_rows(a, gain, bias, eps=1e-5):
    """Per-row standardization followed by a learned affine map, composed
    from elementwise and reduction nodes."""
    n = a.value.shape[1]
    mu = ad.smul(sum_axis(a, axis=1), 1.0 / n)
    xc = sub(a, mu)
    var = ad.smul(sum_axis(ad.mul(xc, xc), axis=1), 1.0 / n)
    inv_std = power(add_const(var, eps), -0.5)
    return ad.add(ad.mul(ad.mul(xc, inv_std), gain), bias)


def masked_mean_rows(a, mask):
    """Means over the rows selected by each row of a 0/1 mask.

    A 1-D mask over the rows of ``a`` gives one (1, n) mean; a (k, rows)
    mask gives k means as a (k, n) node.
    """
    m = np.atleast_2d(np.asarray(mask, dtype=np.float64))
    if m.ndim != 2 or m.shape[1] != a.value.shape[0]:
        raise ValueError(
            f"mask shape {m.shape} does not match {a.value.shape[0]} rows"
        )
    totals = m.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("masked_mean_rows needs at least one selected row")
    return ad.matmul(ad.Node(m / totals), a)


def dense_mean_pool(x, weights):
    """``ad.mean_pool`` through a dense (B, B*L) block-diagonal mask."""
    w = np.asarray(weights, dtype=np.float64)
    b_count, seq_len = w.shape
    pool = np.zeros((b_count, b_count, seq_len))
    pool[np.arange(b_count), np.arange(b_count)] = w
    return masked_mean_rows(x, pool.reshape(b_count, b_count * seq_len))


def prefix_blocks(prefix, d):
    """The (key, value) nodes of an attention ``prefix`` pair (node,
    start): two ``gather_cols`` of d columns each, the key's from
    ``start``."""
    node, start = prefix
    return (gather_cols(node, range(start, start + d)),
            gather_cols(node, range(start + d, start + 2 * d)))


def reference_encode(enc, tokens, prefixes=None):
    """Encode one token sequence with ``enc``'s weights to a (1, d) node.

    ``prefixes`` is an optional per-layer list of (node, start) pairs,
    the node of one row, as ``TextEncoder.encode`` takes them.
    """
    cfg = enc.config
    tokens = list(tokens)
    d_k = cfg.hidden_dim // cfg.heads
    scale = 1.0 / np.sqrt(d_k)
    x = ad.add(
        ad.gather_rows(enc.tok_emb, tokens),
        ad.gather_rows(enc.pos_emb, range(len(tokens))),
    )
    for i, layer in enumerate(enc.layers):
        prefix = None
        if prefixes is not None:
            k_pre, v_pre = prefix_blocks(prefixes[i], cfg.hidden_dim)
            if np.any(v_pre.value != 0.0):
                prefix = (k_pre, v_pre)
        q = ad.add(ad.matmul(x, layer["wq"]), layer["bq"])
        k = ad.add(ad.matmul(x, layer["wk"]), layer["bk"])
        v = ad.add(ad.matmul(x, layer["wv"]), layer["bv"])
        head_outs = []
        for h in range(cfg.heads):
            cols = range(h * d_k, (h + 1) * d_k)
            qh = gather_cols(q, cols)
            kh = gather_cols(k, cols)
            vh = gather_cols(v, cols)
            if prefix is not None:
                kh = concat_rows([gather_cols(prefix[0], cols), kh])
                vh = concat_rows([gather_cols(prefix[1], cols), vh])
            logits = ad.smul(ad.matmul(qh, ad.transpose(kh)), scale)
            head_outs.append(ad.transpose(ad.matmul(softmax_rows(logits), vh)))
        attn = ad.add(
            ad.matmul(ad.transpose(concat_rows(head_outs)), layer["wo"]),
            layer["bo"],
        )
        x = layer_norm_rows(ad.add(x, attn), layer["ln1_g"], layer["ln1_b"])
        ffn = ad.add(
            ad.matmul(
                ref.gelu(ad.add(ad.matmul(x, layer["w1"]), layer["b1"])),
                layer["w2"],
            ),
            layer["b2"],
        )
        x = layer_norm_rows(ad.add(x, ffn), layer["ln2_g"], layer["ln2_b"])
    mask = [1.0 if t != 0 else 0.0 for t in tokens]  # exclude [PAD]
    return ad.l2_normalize_rows(masked_mean_rows(x, mask))


def attention_sublayer(x, query, key, value, output, norm, lengths, heads, prefix=None):
    if prefix is not None:
        prefix = prefix_blocks(prefix, x.value.shape[1])
    attended = ref.attention(ref.linear(x, *query), ref.linear(x, *key),
                             ref.linear(x, *value), lengths, heads, prefix)
    return ref.layer_norm_rows(ad.add(x, ref.linear(attended, *output)), *norm)


def ffn_sublayer(x, inner, outer, norm):
    hidden = ref.gelu(ref.linear(x, *inner))
    return ref.layer_norm_rows(ad.add(x, ref.linear(hidden, *outer)), *norm)


def gather_rows_sum(a, a_indices, b, b_indices):
    return ad.add(ad.gather_rows(a, a_indices), ad.gather_rows(b, b_indices))


def use_compositions(monkeypatch):
    """Make ``TextEncoder.encode`` build the one-node-per-op composition."""
    for name in ("attention_sublayer", "ffn_sublayer", "gather_rows_sum"):
        monkeypatch.setattr(ad, name, globals()[name])
