"""The loss compositions that ``autodiff.info_nce`` and the batched
``contrastive_loss`` replaced.

``info_nce`` is the InfoNCE body of one node per op: the positive picked
by a product with a constant identity, each mask a constant 0/1 leaf,
the denominator summed node by node and the mean a ``mean_all``.
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

from autodiff_reference import add_const, concat_rows, log, mean_all, sub, sum_axis


def keep_matrix(mask: np.ndarray) -> Node:
    """0/1 constant marking in-batch entries that stay in the negative sum.

    ``mask`` is True for excluded entries (positives and false negatives);
    the diagonal is always excluded because the positive term is added
    separately.
    """
    keep = (~np.asarray(mask, dtype=bool)).astype(np.float64)
    np.fill_diagonal(keep, 0.0)
    return Node(keep)


def info_nce(scores: Node, ib_mask: np.ndarray, inv_tau: Node, margin: float,
             extra_sums=()) -> Node:
    """Mean over queries of -log(e^pos / (e^pos + negatives)).

    ``scores`` is (B, B) with the positives on the diagonal; pos is
    (diagonal - margin) * inv_tau, and the negatives are the unmasked
    off-diagonal e^(score * inv_tau) plus each (B, 1) node of
    ``extra_sums``, added in order.
    """
    n = scores.value.shape[0]
    pos = sum_axis(ad.mul(scores, Node(np.eye(n))), axis=1)  # (n, 1)
    pos_logit = ad.mul(add_const(pos, -margin), inv_tau)
    ib_sum = sum_axis(
        ad.mul(ad.exp(ad.mul(scores, inv_tau)), keep_matrix(ib_mask)), axis=1
    )
    denom = ad.add(ad.exp(pos_logit), ib_sum)
    for extra in extra_sums:
        denom = ad.add(denom, extra)
    return mean_all(sub(log(denom), pos_logit))


def negative_sums(h_hr: Node, feats: Node, count: int, inv_tau: Node,
                  keep=None) -> Node:
    """(B, 1) sums of e^(h_q . f * inv_tau) over query q's ``count`` rows
    of ``feats``; entries where the (B, count) ``keep`` is 0 add 0."""
    terms = ad.exp(ad.mul(ad.row_dots(h_hr, feats, count), inv_tau))
    if keep is not None:
        terms = ad.mul(terms, Node(keep))
    return sum_axis(terms, axis=1)


def contrastive_loss(h_hr, h_t, ib_mask, log_tau, margin,
                     mh_features=None, ir_features=None):
    """``losses.contrastive_loss`` composed one node per op."""
    inv_tau = ad.exp(ad.smul(log_tau, -1.0))
    cos_ib = ad.matmul(h_hr, ad.transpose(h_t))
    extra_sums = []
    if mh_features is not None:
        mh = np.asarray(mh_features, dtype=np.float64)
        extra_sums.append(negative_sums(
            h_hr, Node(mh.reshape(-1, mh.shape[2])), mh.shape[1], inv_tau))
    if ir_features is not None:
        rows, index = ir_features
        index = np.asarray(index, dtype=np.intp)
        extra_sums.append(negative_sums(
            h_hr, ad.gather_rows(rows, np.maximum(index, 0).ravel()), index.shape[1],
            inv_tau, (index >= 0).astype(np.float64)))
    return info_nce(cos_ib, ib_mask, inv_tau, margin, extra_sums)


def structural_loss(score_matrix, ib_mask, log_tau, margin):
    """``losses.structural_loss`` composed one node per op."""
    return info_nce(score_matrix, ib_mask, ad.exp(ad.smul(log_tau, -1.0)), margin)


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
            rows.append(sum_axis(ad.exp(ad.mul(logits, inv_tau)), axis=1))
        extra_sums.append(concat_rows(rows))
    return info_nce(cos_ib, ib_mask, inv_tau, margin, extra_sums)


def ir_index(sampled, k):
    """The (B, k) index array for per-query row lists, each query's rows in
    its first slots and -1 in the rest."""
    index = np.full((len(sampled), k), -1, dtype=np.intp)
    for q, rows in enumerate(sampled):
        index[q, :len(rows)] = rows
    return index
