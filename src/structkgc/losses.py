"""Contrastive objectives over unit-norm features and structural scores.

The textual loss for one query is

    -log  e^{(cos(q, t+) - margin)/tau}
          -----------------------------------------------------------
          e^{(cos(q, t+) - margin)/tau} + sum_MH e^{cos/tau} + sum_D e^{cos/tau}

with D the union of unmasked in-batch tails and intra-relation tails;
the margin applies to the positive logit only.  The structural loss has
the same shape over structural scores with in-batch negatives only, so
both are one InfoNCE body over different score matrices.  Batches
reduce by the mean over queries.

The momentum-hard (MH) and intra-relation (IR) sums are batched, each a
handful of tape nodes whatever the batch size: one
:func:`autodiff.row_dots` of every query against its own m stacked MH
rows, and, for IR, one gather of B*k rows of the encoded IR batch, one
``row_dots`` and a 0/1 mask for queries with fewer than k tails.

Temperature is carried as a learnable log-temperature node, which makes
tau > 0 by construction; the clamp to the configured range happens after
each optimizer step.  The loss settings (margin, beta, clamp range) are
fields of ``training.TrainConfig``; the functions here take them as
arguments.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Node


def clamp_log_tau(log_tau: Node, tau_min: float, tau_max: float):
    log_tau.value = np.clip(log_tau.value, np.log(tau_min), np.log(tau_max))


def _keep_matrix(mask: np.ndarray) -> Node:
    """0/1 constant marking in-batch entries that stay in the negative sum.

    ``mask`` is True for excluded entries (positives and false negatives);
    the diagonal is always excluded because the positive term is added
    separately.
    """
    keep = (~np.asarray(mask, dtype=bool)).astype(np.float64)
    np.fill_diagonal(keep, 0.0)
    return Node(keep)


def _info_nce(scores: Node, ib_mask: np.ndarray, inv_tau: Node, margin: float,
              extra_sums=()) -> Node:
    """Mean over queries of -log(e^pos / (e^pos + negatives)).

    ``scores`` is (B, B) with the positives on the diagonal; pos is
    (diagonal - margin) * inv_tau, and the negatives are the unmasked
    off-diagonal e^(score * inv_tau) plus each (B, 1) node of
    ``extra_sums``, added in order.
    """
    n = scores.value.shape[0]
    pos = ad.sum_axis(ad.mul(scores, Node(np.eye(n))), axis=1)  # (n, 1)
    pos_logit = ad.mul(ad.add_const(pos, -margin), inv_tau)
    ib_sum = ad.sum_axis(
        ad.mul(ad.exp(ad.mul(scores, inv_tau)), _keep_matrix(ib_mask)), axis=1
    )
    denom = ad.add(ad.exp(pos_logit), ib_sum)
    for extra in extra_sums:
        denom = ad.add(denom, extra)
    return ad.mean_all(ad.sub(ad.log(denom), pos_logit))


def _negative_sums(h_hr: Node, feats: Node, count: int, inv_tau: Node,
                   keep=None) -> Node:
    """(B, 1) sums of e^(h_q . f * inv_tau) over query q's ``count`` rows
    of ``feats``; entries where the (B, count) ``keep`` is 0 add 0."""
    terms = ad.exp(ad.mul(ad.row_dots(h_hr, feats, count), inv_tau))
    if keep is not None:
        terms = ad.mul(terms, Node(keep))
    return ad.sum_axis(terms, axis=1)


def contrastive_loss(h_hr: Node, h_t: Node, ib_mask: np.ndarray,
                     log_tau: Node, margin: float,
                     mh_features=None, ir_features=None) -> Node:
    """Textual contrastive loss, mean over the batch.

    ``mh_features`` is an optional constant (B, m, d) array, row q
    holding query q's m mixed hard negatives.  ``ir_features`` is an
    optional ``(rows, index, keep)`` triple: a (n, d) Node of
    intra-relation tail encodings, a (B, k) integer array naming the
    rows each query contrasts with, and a (B, k) 0/1 array that is 0
    where a query has fewer than k tails.  An entry with ``keep`` 0 adds
    exactly zero to the loss and to every gradient, whatever row it
    names.
    """
    n = h_hr.value.shape[0]
    if h_t.value.shape[0] != n or ib_mask.shape != (n, n):
        raise ValueError("batch sizes of features and mask must agree")
    inv_tau = ad.exp(ad.smul(log_tau, -1.0))
    cos_ib = ad.matmul(h_hr, ad.transpose(h_t))
    extra_sums = []
    if mh_features is not None:
        mh = np.asarray(mh_features, dtype=np.float64)
        if mh.ndim != 3 or mh.shape[0] != n:
            raise ValueError(f"expected ({n}, m, d) hard negatives, got {mh.shape}")
        extra_sums.append(_negative_sums(
            h_hr, Node(mh.reshape(-1, mh.shape[2])), mh.shape[1], inv_tau))
    if ir_features is not None:
        rows, index, keep = ir_features
        index = np.asarray(index, dtype=np.intp)
        keep = np.asarray(keep, dtype=np.float64)
        if index.ndim != 2 or index.shape[0] != n or keep.shape != index.shape:
            raise ValueError(
                f"expected ({n}, k) intra-relation index and keep arrays, got "
                f"{index.shape} and {keep.shape}"
            )
        extra_sums.append(_negative_sums(
            h_hr, ad.gather_rows(rows, index.ravel()), index.shape[1], inv_tau, keep))
    return _info_nce(cos_ib, ib_mask, inv_tau, margin, extra_sums)


def structural_loss(score_matrix: Node, ib_mask: np.ndarray,
                    log_tau: Node, margin: float) -> Node:
    """Structural contrastive loss over a (B, B) score matrix.

    Rows are queries, columns batch tails, the diagonal the positives;
    negatives are the unmasked in-batch entries only.
    """
    n = score_matrix.value.shape[0]
    if score_matrix.value.shape != (n, n) or ib_mask.shape != (n, n):
        raise ValueError("structural loss expects square scores and mask")
    return _info_nce(score_matrix, ib_mask, ad.exp(ad.smul(log_tau, -1.0)), margin)


def total_loss(loss_cl: Node, loss_dis: Node, beta: float) -> Node:
    if beta < 0:
        raise ValueError(f"structural weight must be non-negative, got {beta}")
    return ad.add(loss_cl, ad.smul(loss_dis, beta))
