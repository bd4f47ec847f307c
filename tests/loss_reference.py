"""The per-query momentum-hard / intra-relation loop that the batched
``contrastive_loss`` replaced.

Each query's MH and IR sums are their own one-row ``matmul`` against a
``gather_rows`` of that query's row; tests pin the batched loss to it,
values and gradients.
"""

import numpy as np

from structkgc import autodiff as ad
from structkgc.autodiff import Node
from structkgc.losses import _info_nce

from autodiff_reference import concat_rows


def reference_contrastive_loss(h_hr, h_t, ib_mask, log_tau, margin,
                               mh_features=None, ir_features=None):
    """``contrastive_loss`` with per-query lists of negatives.

    ``mh_features`` is an optional per-query list of constant (m, d)
    arrays; ``ir_features`` an optional per-query list of (n, d) Nodes
    (or None for a query with no extras).
    """
    n = h_hr.value.shape[0]
    inv_tau = ad.exp(ad.smul(log_tau, -1.0))
    cos_ib = ad.matmul(h_hr, ad.transpose(h_t))
    extra_sums = []
    for extras in (mh_features, ir_features):
        if extras is None:
            continue
        rows = []
        for q in range(n):
            feats = extras[q]
            if feats is None or (hasattr(feats, "shape") and feats.shape[0] == 0):
                rows.append(Node([[0.0]]))
                continue
            feats_node = feats if isinstance(feats, Node) else Node(feats)
            logits = ad.matmul(ad.gather_rows(h_hr, [q]), ad.transpose(feats_node))
            rows.append(ad.sum_axis(ad.exp(ad.mul(logits, inv_tau)), axis=1))
        extra_sums.append(concat_rows(rows))
    return _info_nce(cos_ib, ib_mask, inv_tau, margin, extra_sums)


def ir_index(sampled, k):
    """The (B, k) index array for per-query row lists, each query's rows in
    its first slots and -1 in the rest."""
    index = np.full((len(sampled), k), -1, dtype=np.intp)
    for q, rows in enumerate(sampled):
        index[q, :len(rows)] = rows
    return index
