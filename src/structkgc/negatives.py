"""The three negative sources for contrastive training.

* in-batch negatives with false-negative masking,
* momentum-queue hard negatives with pairwise mixing,
* intra-relation negatives drawn from e(r) - e(h, r).

Sampling operations are pure given an explicit RNG; the queue and the
momentum encoder are single-writer (the training loop).
"""

from __future__ import annotations

import copy

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .graph import KnowledgeGraph
from .model import encode_entities
from .structural import PrefixProjector
from .text import TextEncoder

UNIT_NORM_TOL = 1e-4
# ||query / tau|| up to which ``MomentumQueue.hardest``'s float32 bound holds
PREFILTER_MAX_SCALE = 2.0 ** 120
_MAX_NORM = 1.0 + 2.0 * UNIT_NORM_TOL  # of a pushed row whose float64 norm passed
_SLACK = 1.0 + 2.0 ** -20


class MomentumQueue:
    """Fixed-capacity FIFO of unit-norm feature vectors, kept in a ring.

    Row number ``c`` ever pushed lives in slot ``c % capacity`` of a
    preallocated float64 buffer, and its float32 rounding in the same
    slot of a float32 copy.  Pushes start at slot 0, so the queue is
    slots ``[0, len)`` until it first fills and the whole ring after
    that.  The oldest member sits in the slot of the next push, and a
    member's recency is its slot's distance from there.

    A member's logit for a query is its ``member_logits``: a float64 dot
    over the member's own row, divided by tau, so it does not depend on
    which other rows it is computed with.  ``hardest`` scores the float32
    copy first and computes logits only for the members within 2 delta
    of the k-th score, where delta, proven in its docstring, bounds how
    far any member's float32 score is from its logit.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.dim = dim
        self._buffer = np.zeros((capacity, dim))
        self._buffer32 = np.zeros((capacity, dim), dtype=np.float32)
        self._scores = np.zeros(capacity, dtype=np.float32)
        self._size = 0
        self._next = 0  # slot of the next row pushed

    def __len__(self) -> int:
        return self._size

    def _oldest(self) -> int:
        return (self._next - self._size) % self.capacity

    def push(self, features: np.ndarray):
        """Append unit-norm rows, evicting the oldest beyond capacity."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[1] != self.dim:
            raise ValueError(
                f"feature dim {features.shape[1]} does not match queue dim {self.dim}"
            )
        norms = np.linalg.norm(features, axis=1)
        bad = ~(np.abs(norms - 1.0) <= UNIT_NORM_TOL)  # NaN rows fail too
        if np.any(bad):
            raise ValueError(
                f"queue features must be unit norm, got norm {norms[bad][0]:.6f}"
            )
        # rows beyond the newest ``capacity`` would be evicted at once
        n = len(features)
        kept = features[max(0, n - self.capacity):]
        slots = (self._next + n - len(kept) + np.arange(len(kept))) % self.capacity
        self._buffer[slots] = kept
        self._buffer32[slots] = kept
        self._next = (self._next + n) % self.capacity
        self._size = min(self.capacity, self._size + n)

    def features(self) -> np.ndarray:
        """Queue contents in insertion order, oldest first, as (n, dim)."""
        return np.roll(self._buffer[:self._size], -self._oldest(), axis=0)

    def hardest(self, query: np.ndarray, tau: float, k: int) -> np.ndarray:
        """The k members with the largest logits query.p / tau, hardest first.

        Logit ties break toward the more recently inserted member.  A
        queue smaller than k returns all members, sorted.

        Only members that a float32 prefilter cannot rule out get their
        logit.  With x = fl(query / tau), one float32 gemv writes the
        score s = p32 . x32 of every member into a buffer allocated once.
        With T the k-th largest score, every member scoring at least
        T - 2 delta is sorted by (-logit, -recency), where delta bounds
        |s - logit| for every member.  A member below T - 2 delta has
        logit <= s + delta < T - delta, while each of the k or more
        members scoring at least T has logit >= T - delta.  The division
        by tau is inside the logit, so an excluded member's logit is
        strictly below the k-th largest: it can neither be among the k
        nor tie with the k-th.

        The bound.  Write u = 2**-24 and U = 2**-53 for the float32 and
        float64 unit roundoffs, lam = 2**-126 and LAM = 2**-1022 for their
        smallest normals, and gamma_m = m u / (1 - m u).  Every
        conversion, product, sum or fused multiply-add returns r (1 + e)
        + f for its exact result r, with |e| <= u (U) and |f| <= lam
        (LAM), under gradual underflow or flush-to-zero alike.  ``push``
        checks each float64 norm to ``UNIT_NORM_TOL``, so every member
        has ||p|| <= N = 1 + 2 UNIT_NORM_TOL.  Let d = dim, (d + 4) u <=
        1/3, and X >= ||x||.

        * Rounding p and x to float32 moves each component by at most
          u |.| + lam, so |p32 . x32 - p . x| <= (2u + u^2) N X + 3 d lam
          (N + X + 1).  The float32 dot, in any order and with or without
          FMA, adds at most gamma_d sum |p32_j x32_j| + 3 d lam (Higham,
          *Accuracy and Stability of Numerical Algorithms*, 2002, section
          3.1), and that sum is at most (1 + u)^2 N X + 3 d lam (N + X + 1).
        * The float64 dot of p and q is within gamma(U)_d N ||q|| + 3 d LAM
          of p . q, so its quotient by tau is within that over tau of
          p . q / tau.  Rounding the quotient, and x's own rounding
          against q / tau, add at most 3 U N X + 3 d LAM.

        These sum to at most

            delta = gamma_{d+4} N X + 8 d lam (N + X + 1) + 8 d LAM (1 + 1 / tau),

        since 2u + u^2 + (1 + u)^2 gamma_d + (d + 4) U <= gamma_{d+4}.  Nothing
        overflows while X <= ``PREFILTER_MAX_SCALE``: every float32 value
        stays below 2**122.  ``hardest`` takes X = sqrt(d) max_j |x_j| and
        raises delta by the relative ``_SLACK``, which covers the rounding
        of X, of delta and of T - 2 delta (|T| <= N X + delta, so
        U |T| < 2**-30 delta); the threshold is then rounded down to
        float32.  A query that is not finite or has X above
        ``PREFILTER_MAX_SCALE``, k = 0 and k >= len give every member its
        logit.
        """
        if tau <= 0:
            raise ValueError("temperature must be positive")
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        n = self._size
        query = np.asarray(query, dtype=np.float64).ravel()
        # before the temporaries: a kept block above freed ones fragments the heap
        out = np.empty((min(k, n), self.dim))
        prefilter = self._scores_and_delta(query, tau) if 0 < k < n else None
        if prefilter is None:
            slots, rows = np.arange(n), self._buffer[:n]
        else:
            scores, delta = prefilter
            kth = float(np.partition(scores, n - k)[n - k])
            slots = np.flatnonzero(scores >= _float32_at_or_below(kth - 2 * delta))
            rows = self._buffer[slots]
        logits = member_logits(rows, query, tau)
        recency = (slots - self._oldest()) % self.capacity
        # primary: logits descending; secondary: recency descending
        order = np.lexsort((-recency, -logits))
        return np.take(rows, order[:k], axis=0, out=out, mode="clip")

    def _scores_and_delta(self, query: np.ndarray, tau: float) -> tuple[np.ndarray, float] | None:
        """Float32 scores of every member, in slot order, and the delta of
        ``hardest``; None where delta is not proven."""
        x = query / tau
        scale = np.sqrt(self.dim) * np.abs(x).max(initial=0.0)  # X; NaN if x has a NaN
        u, m = 2.0 ** -24, self.dim + 4
        if not (scale <= PREFILTER_MAX_SCALE and 3 * m * u <= 1):
            return None
        scores = self._scores[:self._size]
        np.dot(self._buffer32[:self._size], x.astype(np.float32), out=scores)
        delta = (m * u / (1 - m * u) * _MAX_NORM * scale
                 + 8 * self.dim * (2.0 ** -126 * (_MAX_NORM + scale + 1)
                                   + 2.0 ** -1022 * (1 + 1 / tau)))
        return scores, delta * _SLACK


def member_logits(rows: np.ndarray, query: np.ndarray, tau: float) -> np.ndarray:
    """Float64 logits ``rows . query / tau``, each from its own row alone.

    A BLAS gemv is not used: it rounds the last ``len(rows) % 4`` rows
    differently, so ``(mat @ q)[C]`` and ``mat[C] @ q`` can differ in the
    last bits, and two equal rows can get different logits.
    """
    return np.einsum("ij,j->i", rows, query) / tau


def _float32_at_or_below(value: float) -> np.float32:
    """The largest float32 that is at most ``value``."""
    near = np.float32(value)
    return np.nextafter(near, np.float32(-np.inf)) if float(near) > value else near


def mix_hard_negatives(hardest: np.ndarray, count: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """Blend random pairs from the hardest set into unit-norm negatives.

    Each output is (lam * p_i + (1 - lam) * p_j) / ||.|| with lam drawn
    per negative from Uniform(0, 1) and i != j.  With fewer than two
    members there is nothing to mix: the raw members are returned and the
    fallback flag is set for telemetry.

    Draw order, per call: one ``rng.integers(0, n * (n - 1), size=count)``
    over the ordered pairs, pair p decoding to i = p // (n - 1) and
    j = p % (n - 1), skipping i; then one ``rng.uniform(0.0, 1.0, count)``
    for every lam.  These give the same numbers, and leave the generator
    in the same state, as ``rng.choice(n * (n - 1), size=count)`` and
    ``rng.uniform`` with ``count``-long bounds of 0 and 1.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    hardest = np.atleast_2d(np.asarray(hardest, dtype=np.float64))
    n = hardest.shape[0]
    if n < 2:
        return hardest.copy(), True
    pairs = rng.integers(0, n * (n - 1), size=count)
    i, j = np.divmod(pairs, n - 1)
    j += j >= i
    lam = np.reshape(rng.uniform(0.0, 1.0, count), (-1, 1))
    mixed = lam * hardest[i] + (1.0 - lam) * hardest[j]
    norms = np.linalg.norm(mixed, axis=1, keepdims=True)
    return mixed / np.maximum(norms, 1e-12), False


def sample_intra_relation(graph: KnowledgeGraph, head: int, relation: int,
                          count: int, rng: np.random.Generator) -> list[int]:
    """Up to ``count`` distinct tails from e(r) - e(h, r) in the train split.

    When the difference is empty, falls back to uniform entities outside
    e(h, r).  Sampled tails are never train-true for (head, relation).
    The pool is sorted by entity id and drawn from with one
    ``rng.choice(len(pool), size, replace=False)``.

    The pool is never built: it is a sorted universe (e(r), or every
    entity id in the fallback) minus the sorted positions of e(h, r) in
    it, and each draw maps to its universe position by counting the
    excluded positions at or below it.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if not 0 <= relation < graph.num_relations:
        raise ValueError(
            f"relation {relation} is out of range (have {graph.num_relations} relations)")
    if not 0 <= head < graph.num_entities:
        raise ValueError(
            f"head {head} is out of range (have {graph.num_entities} entities)")
    true_tails = graph.tails_by_pair(head, relation, ("train",))
    universe = graph.tails_by_relation(relation, ("train",))
    if len(true_tails) < len(universe):  # within one split e(h, r) is a subset of e(r)
        excluded, size = universe.searchsorted(true_tails), len(universe)
    else:  # every entity id, which is its own position
        universe, excluded, size = None, true_tails, graph.num_entities
    size -= len(excluded)
    if not size:
        return []
    picks = rng.choice(size, size=min(count, size), replace=False)
    # the p-th pool member sits past the excluded positions e_i with e_i - i <= p
    picks += (excluded - np.arange(len(excluded))).searchsorted(picks, side="right")
    return (picks if universe is None else universe[picks]).tolist()


def in_batch_mask(queries: list[tuple[int, int]], batch_tails: list[int],
                  graph: KnowledgeGraph) -> np.ndarray:
    """(B, B) boolean matrix; True marks tails excluded from S_neg.

    Entry (q, j) is masked when tail_j is query q's positive or when
    (h_q, r_q, tail_j) is a training-true triple (a false negative).
    Raises ``ValueError`` naming the first head, relation or tail, in
    batch order, that is out of range.
    """
    n = len(queries)
    if len(batch_tails) != n:
        raise ValueError("queries and tails must align")
    tails = np.asarray(batch_tails, dtype=np.int64)
    ids = np.column_stack([np.reshape(np.asarray(queries, dtype=np.int64), (n, 2)), tails])
    limits = np.array([graph.num_entities, graph.num_relations, graph.num_entities])
    bad = np.flatnonzero((ids < 0) | (ids >= limits))
    if len(bad):
        q, col = divmod(int(bad[0]), 3)
        name, unit = (("head", "entities"), ("relation", "relations"), ("tail", "entities"))[col]
        raise ValueError(
            f"{name} {ids[q, col]} is out of range (have {limits[col]} {unit})")
    mask = tails[:, None] == tails[None, :]
    for q, (h, r) in enumerate(queries):
        known = graph.tails_by_pair(h, r, ("train",))  # sorted and distinct
        if len(known):
            at = known.searchsorted(tails).clip(max=len(known) - 1)
            mask[q] |= known[at] == tails
    return mask


class MomentumEncoder:
    """EMA shadow of the tail-side encoders producing stable queue features.

    Shadows the tail text encoder and, when there is one, the tail prefix
    projector together with the structural entity table it reads, as
    deep copies encoded through the model's own tail path.  Without a
    projector nothing reads the table, so it is not shadowed.  After
    every optimizer step ``theta_key <- m * theta_key + (1 - m) * theta_online``.
    """

    def __init__(self, tail_encoder: TextEncoder, tail_projector: PrefixProjector | None,
                 entity_table: Node, momentum: float = 0.999):
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        if tail_projector is None:
            entity_table = None
        online = (tail_encoder, tail_projector, entity_table)
        self.encoder, self.projector, self.entity_table = copy.deepcopy(online)
        self._pairs = list(zip(_leaves(self.encoder, self.projector, self.entity_table),
                               _leaves(*online)))

    def ema_update(self):
        m = self.momentum
        # in place, in the order of operations of the formula: the shadows
        # are deep copies that nothing outside this encoder holds
        for shadow, online in self._pairs:
            shadow.value *= m
            shadow.value += (1.0 - m) * online.value

    def encode_tails(self, token_seqs, tail_ids) -> np.ndarray:
        """Momentum features for a batch of tails, as a plain (B, d) array."""
        with ad.no_grad():
            return encode_entities(self.encoder, self.projector, self.entity_table,
                                   token_seqs, tail_ids).value


def _leaves(encoder: TextEncoder, projector: PrefixProjector | None,
            entity_table: Node | None) -> list[Node]:
    """Parameter nodes in a fixed order: encoder, then projector and entity
    table when there is a projector."""
    leaves = list(encoder.parameters().values())
    if projector is not None:
        leaves.extend(projector.parameters().values())
        leaves.append(entity_table)
    return leaves
