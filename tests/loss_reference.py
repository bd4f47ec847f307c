"""The loss compositions that ``autodiff.info_nce`` and the batched
``contrastive_loss`` replaced.

``info_nce`` takes the arguments of ``autodiff.info_nce`` and builds its
body one node per op: the inverse temperature a negation and an
exponential of the log-temperature, the positive picked by a product
with a constant identity, each mask a constant 0/1 leaf, the
denominator summed node by node and the mean a ``mean_all``.
``contrastive_loss`` and ``structural_loss`` take the arguments of their
``structkgc.losses`` namesakes and build it, the momentum-hard features
a constant leaf; ``use_compositions`` patches them into the training
step.  The one-node loss must match them byte for byte.

``reference_contrastive_loss`` is the per-query momentum-hard /
intra-relation loop: each query's MH and IR sums are their own one-row
``matmul`` against a ``gather_rows`` of that query's row; tests pin the
batched loss to it, values and gradients.
"""

import numpy as np

from structkgc import autodiff as ad
from structkgc import training
from structkgc.autodiff import Node

from autodiff_reference import add_const, concat_rows, exp, log, mean_all, sub, sum_axis


def keep_matrix(keep: np.ndarray) -> Node:
    """0/1 constant marking the in-batch entries that stay in the negative
    sum: those where ``keep`` holds, off the diagonal, as the positive term
    is added separately."""
    keep = np.array(keep, dtype=np.float64)
    np.fill_diagonal(keep, 0.0)
    return Node(keep)


def inverse_temperature(log_tau: Node) -> Node:
    return exp(ad.smul(log_tau, -1.0))


def info_nce_sums(scores: Node, keep, inv_tau: Node, margin: float,
                  extra_sums=()) -> Node:
    """Mean over queries of -log(e^pos / (e^pos + negatives)).

    ``scores`` is (B, B) with the positives on the diagonal; pos is
    (diagonal - margin) * inv_tau, and the negatives are the off-diagonal
    e^(score * inv_tau) where ``keep`` holds plus each (B, 1) node of
    ``extra_sums``, added in order.
    """
    n = scores.value.shape[0]
    pos = sum_axis(ad.mul(scores, Node(np.eye(n))), axis=1)  # (n, 1)
    pos_logit = ad.mul(add_const(pos, -margin), inv_tau)
    ib_sum = sum_axis(
        ad.mul(exp(ad.mul(scores, inv_tau)), keep_matrix(keep)), axis=1
    )
    denom = ad.add(exp(pos_logit), ib_sum)
    for extra in extra_sums:
        denom = ad.add(denom, extra)
    return mean_all(sub(log(denom), pos_logit))


def info_nce(scores: Node, log_tau: Node, margin: float, keep, extra=()) -> Node:
    """``autodiff.info_nce`` composed one node per op; each (dots, mask)
    pair of ``extra`` adds the row sums of e^(dots * inv_tau), masked by
    a constant 0/1 leaf unless ``mask`` is None."""
    inv_tau = inverse_temperature(log_tau)
    extra_sums = []
    for dots, mask in extra:
        terms = exp(ad.mul(dots, inv_tau))
        if mask is not None:
            terms = ad.mul(terms, Node(np.asarray(mask, dtype=np.float64)))
        extra_sums.append(sum_axis(terms, axis=1))
    return info_nce_sums(scores, keep, inv_tau, margin, extra_sums)


def contrastive_loss(h_hr, h_t, ib_mask, log_tau, margin,
                     mh_features=None, ir_features=None):
    """``losses.contrastive_loss`` composed one node per op."""
    cos_ib = ad.matmul(h_hr, ad.transpose(h_t))
    extra = []
    if mh_features is not None:
        mh = np.asarray(mh_features, dtype=np.float64)
        extra.append((ad.row_dots(h_hr, Node(mh.reshape(-1, mh.shape[2])), mh.shape[1]),
                      None))
    if ir_features is not None:
        rows, index = ir_features
        index = np.asarray(index, dtype=np.intp)
        gathered = ad.gather_rows(rows, np.maximum(index, 0).ravel())
        extra.append((ad.row_dots(h_hr, gathered, index.shape[1]), index >= 0))
    return info_nce(cos_ib, log_tau, margin, np.logical_not(ib_mask), extra)


def structural_loss(score_matrix, ib_mask, log_tau, margin):
    """``losses.structural_loss`` composed one node per op."""
    return info_nce(score_matrix, log_tau, margin, np.logical_not(ib_mask))


def use_compositions(monkeypatch):
    """Make the training step build both losses one node per op."""
    for name in ("contrastive_loss", "structural_loss"):
        monkeypatch.setattr(training, name, globals()[name])


def reference_contrastive_loss(h_hr, h_t, ib_mask, log_tau, margin,
                               mh_features=None, ir_features=None):
    """``contrastive_loss`` with per-query lists of negatives.

    ``mh_features`` is an optional per-query list of constant (m, d)
    arrays; ``ir_features`` an optional per-query list of (n, d) Nodes
    (or None for a query with no extras).
    """
    n = h_hr.value.shape[0]
    inv_tau = inverse_temperature(log_tau)
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
            rows.append(sum_axis(exp(ad.mul(logits, inv_tau)), axis=1))
        extra_sums.append(concat_rows(rows))
    return info_nce_sums(cos_ib, np.logical_not(ib_mask), inv_tau, margin, extra_sums)


def ir_index(sampled, k):
    """The (B, k) index array for per-query row lists, each query's rows in
    its first slots and -1 in the rest."""
    index = np.full((len(sampled), k), -1, dtype=np.intp)
    for q, rows in enumerate(sampled):
        index[q, :len(rows)] = rows
    return index
