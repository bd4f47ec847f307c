"""Contrastive objectives over unit-norm features and structural scores.

The textual loss for one query is

    -log  e^{(cos(q, t+) - margin)/tau}
          -----------------------------------------------------------
          e^{(cos(q, t+) - margin)/tau} + sum_MH e^{cos/tau} + sum_D e^{cos/tau}

with D the union of unmasked in-batch tails and intra-relation tails;
the margin applies to the positive logit only.  The structural loss has
the same shape over structural scores with in-batch negatives only, so
each is one :func:`autodiff.info_nce` node over its score matrix.
Batches reduce by the mean over queries.

The momentum-hard (MH) and intra-relation (IR) dot products are
batched, one node each whatever the batch size: an
:func:`autodiff.row_dots` of every query against its own m stacked MH
rows, a constant array that takes no gradient, and, for IR, a
``row_dots`` against one gather of B*k rows of the encoded IR batch,
with a mask for queries with fewer than k tails.

Temperature is carried as a learnable log-temperature node, which makes
tau > 0 by construction; ``info_nce`` reads it and forms 1/tau itself.
The clamp to the configured range happens after each optimizer step.
The loss settings (margin, beta, clamp range) are fields of
``training.TrainConfig``; the functions here take them as arguments.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Node


def clamp_log_tau(log_tau: Node, tau_min: float, tau_max: float):
    log_tau.value = np.clip(log_tau.value, np.log(tau_min), np.log(tau_max))


def contrastive_loss(h_hr: Node, h_t: Node, ib_mask: np.ndarray,
                     log_tau: Node, margin: float,
                     mh_features=None, ir_features=None) -> Node:
    """Textual contrastive loss, mean over the batch.

    ``mh_features`` is an optional constant (B, m, d) array, row q
    holding query q's m mixed hard negatives.  ``ir_features`` is an
    optional ``(rows, index)`` pair: a (n, d) Node of intra-relation tail
    encodings and a (B, k) integer array naming the rows each query
    contrasts with, -1 marking a slot of a query with fewer than k tails.
    A -1 slot adds exactly zero to the loss and to every gradient.
    """
    n = h_hr.value.shape[0]
    if h_t.value.shape[0] != n or ib_mask.shape != (n, n):
        raise ValueError("batch sizes of features and mask must agree")
    cos_ib = ad.matmul(h_hr, ad.transpose(h_t))
    extra = []
    if mh_features is not None:
        mh = np.asarray(mh_features, dtype=np.float64)
        if mh.ndim != 3 or mh.shape[0] != n:
            raise ValueError(f"expected ({n}, m, d) hard negatives, got {mh.shape}")
        extra.append((ad.row_dots(h_hr, mh.reshape(-1, mh.shape[2]), mh.shape[1]), None))
    if ir_features is not None:
        rows, index = ir_features
        index = np.asarray(index, dtype=np.intp)
        if index.ndim != 2 or index.shape[0] != n:
            raise ValueError(f"expected a ({n}, k) intra-relation index, got {index.shape}")
        if index.size and (index.min() < -1 or index.max() >= len(rows.value)):
            raise ValueError(f"intra-relation index {index.min()}..{index.max()} is "
                             f"outside [-1, {len(rows.value)})")
        gathered = ad.gather_rows(rows, np.maximum(index, 0).ravel())
        extra.append((ad.row_dots(h_hr, gathered, index.shape[1]), index >= 0))
    return ad.info_nce(cos_ib, log_tau, margin, np.logical_not(ib_mask), extra)


def structural_loss(score_matrix: Node, ib_mask: np.ndarray,
                    log_tau: Node, margin: float) -> Node:
    """Structural contrastive loss over a (B, B) score matrix.

    Rows are queries, columns batch tails, the diagonal the positives;
    negatives are the unmasked in-batch entries only.
    """
    n = score_matrix.value.shape[0]
    if score_matrix.value.shape != (n, n) or ib_mask.shape != (n, n):
        raise ValueError("structural loss expects square scores and mask")
    return ad.info_nce(score_matrix, log_tau, margin, np.logical_not(ib_mask))


def total_loss(loss_cl: Node, loss_dis: Node, beta: float) -> Node:
    """loss_cl + beta * loss_dis; ``TrainConfig`` rejects a negative beta."""
    return ad.add(loss_cl, ad.smul(loss_dis, beta))
