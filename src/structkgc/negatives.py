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


class MomentumQueue:
    """Fixed-capacity FIFO of unit-norm feature vectors, kept in a ring.

    Row number ``c`` ever pushed lives in slot ``c % capacity`` of a
    preallocated buffer and is written twice, at that slot and at
    ``slot + capacity``.  With that mirror the queue, oldest first, is
    always the contiguous view ``buffer[start:start + len]``: scoring it
    needs no copy, and a row's position in the view is its recency.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.dim = dim
        self._buffer = np.zeros((2 * capacity, dim))
        self._size = 0
        self._next = 0  # slot of the next row pushed

    def __len__(self) -> int:
        return self._size

    def _window(self) -> np.ndarray:
        start = (self._next - self._size) % self.capacity
        return self._buffer[start:start + self._size]

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
        self._buffer[slots + self.capacity] = kept
        self._next = (self._next + n) % self.capacity
        self._size = min(self.capacity, self._size + n)

    def features(self) -> np.ndarray:
        """Queue contents in insertion order, oldest first, as (n, dim)."""
        return self._window().copy()

    def hardest(self, query: np.ndarray, tau: float, k: int) -> np.ndarray:
        """The k members with the largest logits query.p / tau, hardest first.

        Logit ties break toward the more recently inserted member.  A
        queue smaller than k returns all members, sorted.  Only the
        members whose logit reaches the k-th largest are sorted, so ties
        straddling place k still resolve toward the newer member.
        """
        if tau <= 0:
            raise ValueError("temperature must be positive")
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        mat = self._window()
        n = len(mat)
        logits = mat @ np.asarray(query, dtype=np.float64).ravel() / tau
        members = None
        if 0 < k < n:
            kth = np.partition(logits, n - k)[n - k]
            members = np.flatnonzero(logits >= kth)
        if members is None or len(members) < k:  # fewer only with NaN logits
            members = np.arange(n)
        # primary: logits descending; secondary: recency descending
        order = members[np.lexsort((-members, -logits[members]))]
        return mat[order[: min(k, n)]]


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
    """
    n = len(queries)
    if len(batch_tails) != n:
        raise ValueError("queries and tails must align")
    tails = np.asarray(batch_tails, dtype=np.int64)
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
        for shadow, online in self._pairs:
            shadow.value = m * shadow.value + (1.0 - m) * online.value

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
