"""The per-sequence, per-head text encoder that the fused pass replaced.

It encodes one sequence at a time, slicing every head out with
``gather_cols`` and joining the heads with ``concat_rows``, and drops a
layer's prefix when its value vector is exactly zero.  Tests pin the
fused ``TextEncoder.encode`` to it, values and gradients.
"""

import numpy as np

from structkgc import autodiff as ad


def reference_encode(enc, tokens, prefixes=None):
    """Encode one token sequence with ``enc``'s weights to a (1, d) node.

    ``prefixes`` is an optional per-layer list of (key, value) nodes of
    shape (1, d).
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
            k_pre, v_pre = prefixes[i]
            if np.any(v_pre.value != 0.0):
                prefix = (k_pre, v_pre)
        q = ad.add(ad.matmul(x, layer["wq"]), layer["bq"])
        k = ad.add(ad.matmul(x, layer["wk"]), layer["bk"])
        v = ad.add(ad.matmul(x, layer["wv"]), layer["bv"])
        head_outs = []
        for h in range(cfg.heads):
            cols = range(h * d_k, (h + 1) * d_k)
            qh = ad.gather_cols(q, cols)
            kh = ad.gather_cols(k, cols)
            vh = ad.gather_cols(v, cols)
            if prefix is not None:
                kh = ad.concat_rows([ad.gather_cols(prefix[0], cols), kh])
                vh = ad.concat_rows([ad.gather_cols(prefix[1], cols), vh])
            logits = ad.smul(ad.matmul(qh, ad.transpose(kh)), scale)
            head_outs.append(ad.transpose(ad.matmul(ad.softmax_rows(logits), vh)))
        attn = ad.add(
            ad.matmul(ad.transpose(ad.concat_rows(head_outs)), layer["wo"]),
            layer["bo"],
        )
        x = ad.layer_norm_rows(ad.add(x, attn), layer["ln1_g"], layer["ln1_b"])
        ffn = ad.add(
            ad.matmul(
                ad.gelu(ad.add(ad.matmul(x, layer["w1"]), layer["b1"])),
                layer["w2"],
            ),
            layer["b2"],
        )
        x = ad.layer_norm_rows(ad.add(x, ffn), layer["ln2_g"], layer["ln2_b"])
    mask = [1.0 if t != 0 else 0.0 for t in tokens]  # exclude [PAD]
    return ad.l2_normalize_rows(ad.masked_mean_rows(x, mask))
