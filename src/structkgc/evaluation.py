"""Filtered entity ranking, relation-based re-ranking and MIOU diagnostics.

Ranks are filtered: every known-true candidate other than the queried
gold tail is ignored.  Ties are pessimistic: the gold entity ranks last
among equal scores.  Reports average over both query directions (tail
prediction and head prediction via inverse relations) and carry a
per-direction breakdown.

``evaluate`` ranks a split in blocks of ``SCORE_BLOCK`` queries.  A scorer
has two methods.  ``block_scores(pairs)`` returns ``(rows, delta)``: a
score row for each (head, relation) pair of a block, and a bound
``delta`` on each row's distance from the canonical ``scores(head,
relation)``; ``ModelScorer`` proposes its rows from one matrix product
per scoring path.  ``_ranked`` ranks every row; a proposed row keeps its
ranking only when no scores within ``delta`` could change its rank
(``_rank``, the one count behind every rank), its top list or the printed
6-decimal scores, and otherwise is ranked again from ``scores``.  So
``scores`` is called only for a row that fails this certificate, and a
scorer that proposes its canonical rows with ``delta`` 0 is never asked.
Blocks are ranked on every usable CPU (``_run_on_cpus``), so a scorer's
methods may be called from several threads at once and must be pure; the
output does not depend on the number of threads.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .graph import SPLITS, KnowledgeGraph
from .model import Model, ModelConfig
from .structural import struct_queries_node, unit_entity_table
from .text import Tokenizer, tokenize_entity, tokenize_hr

SCORE_MODES = ("text", "struct", "combined")
DEFAULT_FILTER_SPLITS = ("train", "valid", "test")
# Token rows per text-encoder call when the scorer encodes its tail matrix
# and its queries: a chunk holds max(1, ENCODE_TOKENS // L) sequences, L
# being the longest token list of the table, so one padded pass amortises
# the per-op overhead over about as many rows at any description length.
# The budget bounds what a chunk holds in flight: its (rows, 4 * hidden_dim)
# FFN arrays, ~0.8 MB each at hidden_dim 64, and its (chunk, heads, L,
# L + 1) attention arrays, ~0.8 MB each at 4 heads and L = 64.  Each usable
# CPU has one chunk in flight, so peak memory grows with the number of
# CPUs and with neither the entity count nor the query count.
ENCODE_TOKENS = 384
# Queries per score block.  ``ModelScorer`` scores a block with one matrix
# product per path instead of one matrix-vector product per query, each of
# which reads the whole entity table again; one (16, 40,943) float64 block
# of a WN18RR-sized graph is 5.2 MB.
SCORE_BLOCK = 16
# Candidates per group when ``top_candidates`` looks for its threshold: the
# best of each group is one entry of a row 1/64 as long, so finding the
# k-th best of those is cheap, and few candidates lie above it.
TOP_GROUP = 64
# Unit roundoff of float64, and the relative margin added to a computed
# error bound to cover the rounding of computing it.
_U = 2.0 ** -53
_SLACK = 1 + 2.0 ** -40


def _ids(ids, n: int) -> np.ndarray:
    """Candidate ids as an index array, from an array or any iterable of
    ints; ``ValueError`` names the first id outside [0, n)."""
    ids = ids if isinstance(ids, np.ndarray) else np.fromiter(ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        bad = ids[(ids < 0) | (ids >= n)][0]
        raise ValueError(f"candidate id {bad} is outside [0, {n})")
    return ids


def filtered_rank(scores: np.ndarray, gold: int, filter_ids) -> int:
    """1 + the number of unfiltered non-gold candidates at or above gold.

    Candidates in ``filter_ids`` are ignored entirely, an id listed twice
    once.  Score ties count against the gold entity (pessimistic
    tie-breaking).  A gold or filter id outside [0, n) is a ``ValueError``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= gold < len(scores):
        raise ValueError(f"gold entity {gold} is outside [0, {len(scores)})")
    filtered = _ids(filter_ids, len(scores))
    if np.any(filtered == gold):
        raise ValueError(f"gold entity {gold} is in the filter set")
    return _rank(scores, gold, np.unique(filtered), 0.0)


def _rank(scores: np.ndarray, gold: int, filtered: np.ndarray, delta: float) -> int | None:
    """The filtered rank of ``gold``, or None when ``delta`` > 0 and a
    float64 score vector within ``delta`` of ``scores``, entry by entry,
    could rank it differently.

    ``filtered`` holds distinct ids other than ``gold``.  The rank is the
    count of kept candidates, gold included, at or above ``lo``.  With
    ``delta`` 0, lo is the gold's score g, so ties count against the gold,
    and a NaN g, at or above nothing, ranks 1.  With ``delta`` > 0, one sum
    shows the row finite, and lo and hi are the floats below the computed
    g - 2 delta and above the computed g + 2 delta.  Rounding to nearest
    leaves a computed value closer to the exact one than to the float on
    its other side, so any x outside [lo, hi] has |x - g| > 2 delta
    exactly.  Moving every entry by at most ``delta`` moves x - g by at
    most 2 delta, so no such x crosses g: the rank holds for every row
    within ``delta`` when the gold is the only kept entry in [lo, hi].
    """
    g = float(scores[gold])
    dropped = scores[filtered]
    lo = math.nextafter(g - 2 * delta, -math.inf) if delta else g
    rank = np.count_nonzero(scores >= lo) - np.count_nonzero(dropped >= lo)
    if not delta:
        return max(rank, 1)                 # a NaN gold counts nothing
    if not math.isfinite(scores.sum()):
        return None
    hi = math.nextafter(g + 2 * delta, math.inf)
    above = np.count_nonzero(scores > hi) - np.count_nonzero(dropped > hi)
    return rank if rank == above + 1 else None    # gold alone in the band


def top_candidates(scores: np.ndarray, filtered, k: int) -> np.ndarray:
    """Ids of the ``k`` best candidates outside ``filtered``, by (-score, id).

    The scores are negated with the filtered ones set to +inf, and split
    into ``TOP_GROUP`` groups when that leaves at least ``k`` of them.  The
    k-th smallest of the group minima, found by one partition, is a
    threshold at least ``k`` kept candidates reach, so only those at or
    below it get sorted.  NaN and +inf sort last, so either there means
    fewer than ``k`` such candidates, and then every candidate gets sorted.
    """
    filtered = _ids(filtered, len(scores))
    if 0 < k < len(scores) - len(filtered):
        neg = np.negative(scores, dtype=np.float64)
        neg[filtered] = np.inf
        width = len(neg) // TOP_GROUP
        best = (neg[:width * TOP_GROUP].reshape(TOP_GROUP, width).min(axis=0)
                if width >= k else neg)
        threshold = np.partition(best, k - 1)[k - 1]
        if threshold < np.inf:
            ids = np.flatnonzero(neg <= threshold)
            return ids[np.lexsort((ids, neg[ids]))[:k]]
    ids = np.delete(np.arange(len(scores)), filtered)
    return ids[np.lexsort((ids, -scores[ids]))[:k]]


def aggregate(ranks) -> dict[str, float]:
    """MRR and Hits@{1,3,10} of a non-empty rank list."""
    ranks = np.asarray(list(ranks), dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("cannot aggregate an empty rank list")
    return {
        "mrr": float(np.mean(1.0 / ranks)),
        "hits1": float(np.mean(ranks <= 1)),
        "hits3": float(np.mean(ranks <= 3)),
        "hits10": float(np.mean(ranks <= 10)),
    }


def _check_alpha(alpha: float) -> None:
    if not math.isfinite(alpha) or alpha < 0:
        raise ValueError(
            f"re-ranking penalty alpha must be a finite non-negative number, got {alpha}")


def rerank(scores: np.ndarray, neighbor_ids, alpha: float) -> np.ndarray:
    """score'(t) = score(t) - alpha * 1(t not in N_r); pure, input untouched."""
    _check_alpha(alpha)
    scores = np.asarray(scores, dtype=np.float64)
    ids = _ids(neighbor_ids, len(scores))
    if alpha == 0.0:
        return scores.copy()
    out = scores - alpha        # x - 0.0 is x: the e(r) entries are copied back
    out[ids] = scores[ids]
    return out


def miou(graph: KnowledgeGraph, split: str = "test") -> tuple[float, dict[int, float]]:
    """Mean intersection-over-union of per-relation tail sets.

    Each relation r of the split's triples scores |e(r, train) & e(r, split)|
    over |e(r, train) | e(r, split)|, both from the graph's splits; the
    mean runs over the split's triples, so relations count with
    multiplicity.  A relation absent from train contributes 0.  A split
    with no triples has no mean and raises ``ValueError``.
    """
    relations = graph.triples(split)[:, 1].tolist()
    if not relations:
        raise ValueError(f"split {split!r} has no triples to compare")
    per_relation: dict[int, float] = {}
    for r in relations:
        if r in per_relation:
            continue
        train_tails = graph.tails_by_relation(r, ("train",))
        if not len(train_tails):
            per_relation[r] = 0.0
            continue
        split_tails = graph.tails_by_relation(r, (split,))
        overlap = np.intersect1d(train_tails, split_tails, assume_unique=True)
        union = np.union1d(train_tails, split_tails)
        per_relation[r] = len(overlap) / len(union)
    mean = float(np.mean([per_relation[r] for r in relations]))
    return mean, per_relation


# ---------------------------------------------------------------------------
# scoring backends
# ---------------------------------------------------------------------------

def missing_path(config: ModelConfig, mode: str) -> str | None:
    """The path ("text" or "structural") ``mode`` scoring needs and ``config`` lacks, or None."""
    if mode in ("text", "combined") and not config.use_text:
        return "text"
    if mode in ("struct", "combined") and not config.use_ase:
        return "structural"
    return None


class ModelScorer:
    """Scores every entity as tail candidate for the (head, relation)
    pairs it is built for; a pair outside the graph's entities or
    relations is a ``ValueError``.

    Everything is computed at construction, from the model as it is then:
    the tail text matrix and the unit-normalised entity table on the tail
    side, and on the query side the text queries of the distinct
    ``pairs`` in first-seen order and their unit structural queries in one
    batched build.  Text goes through the encoders in padded batches of
    at most ``ENCODE_TOKENS`` token rows, one sequence at the least,
    encoded at the same time on every usable CPU by ``_run_on_cpus``, with
    the same bytes as one after another (``_encode_in_chunks``).  A row's
    bytes depend on its batch's padded length, so they may differ by
    rounding from those of the same sequence encoded alone.  The scorer
    keeps these arrays and no reference to the model, so later parameter
    updates do not reach it; ``scores`` is one or two matrix-vector
    products, and ``block_scores`` one or two matrix products for a block
    of pairs.
    """

    def __init__(self, model: Model, graph: KnowledgeGraph,
                 tokenizer: Tokenizer | None, pairs, mode: str = "text",
                 beta: float = 0.5):
        if mode not in SCORE_MODES:
            raise ValueError(f"score mode must be one of {SCORE_MODES}, got {mode!r}")
        if not math.isfinite(beta):
            raise ValueError(f"structural weight beta must be a finite number, got {beta}")
        lacking = missing_path(model.config, mode)
        if lacking is not None:
            raise ValueError(f"{mode!r} scoring needs a model with the {lacking} path")
        if mode in ("text", "combined") and tokenizer is None:
            raise ValueError("text scoring needs a tokenizer")
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        outside = np.flatnonzero((pairs < 0).any(axis=1) | (pairs[:, 0] >= graph.num_entities)
                                 | (pairs[:, 1] >= graph.num_relations))
        if len(outside):
            raise ValueError(f"pair {tuple(pairs[outside[0]].tolist())} is outside the graph's "
                             f"{graph.num_entities} entities and {graph.num_relations} relations")
        pairs = list(dict.fromkeys(map(tuple, pairs.tolist())))
        if not pairs:
            raise ValueError("a scorer needs at least one (head, relation) pair")
        self.mode = mode
        self.beta = beta
        self._rows = {pair: row for row, pair in enumerate(pairs)}
        self._tail_matrix = self._text_queries = None
        self._unit_tails = self._struct_queries = None
        with ad.no_grad():
            if mode != "struct":
                max_len = model.config.max_len
                self._tail_matrix = _encode_in_chunks(
                    model.encode_tails, range(graph.num_entities),
                    lambda e: tokenize_entity(tokenizer, graph, e, max_len))
                self._text_queries = _encode_in_chunks(
                    model.encode_queries, pairs,
                    lambda p: tokenize_hr(tokenizer, graph, *p, max_len))
            if mode != "text":
                self._unit_tails = unit_entity_table(model.struct)
                heads, relations = np.array(pairs, dtype=np.intp).T
                self._struct_queries = struct_queries_node(model.struct, heads,
                                                           relations).value
        # the bound of ``block_scores``; a path the mode does not use adds 0
        delta_t, m_t = (0.0, 0.0) if mode == "struct" else _dot_bound(self._tail_matrix.shape[1])
        delta_s, m_s = (0.0, 0.0) if mode == "text" else _dot_bound(self._unit_tails.shape[1])
        delta = (delta_t + abs(beta) * delta_s + 2 * _U * (m_t + abs(beta) * m_s * (2 + _U))
                 if mode == "combined" else delta_t + delta_s)
        self._delta = delta * _SLACK

    def _row(self, head: int, relation: int) -> int:
        row = self._rows.get((head, relation))
        if row is None:
            raise KeyError(f"the scorer was not built for pair {(head, relation)}")
        return row

    def scores(self, head: int, relation: int) -> np.ndarray:
        row = self._row(head, relation)
        struct = (None if self.mode == "text"
                  else self._unit_tails @ self._struct_queries[row])
        if self.mode == "struct":
            return struct
        text = self._tail_matrix @ self._text_queries[row]
        return text if struct is None else text + self.beta * struct

    def block_scores(self, pairs) -> tuple[np.ndarray, float]:
        """Score rows of ``pairs`` from one matrix product per path, and a
        bound ``delta`` with |row[e] - scores(h, r)[e]| <= delta everywhere.

        A row of a matrix product is not bit for bit the matrix-vector
        product of ``scores``: the two sum in different orders.  With u =
        2**-53 and gamma_n = n*u / (1 - n*u), any float64 dot product of
        length d, in any summation order and with or without fused
        multiply-adds, is within gamma_d * sum|q_i||t_i| <= gamma_d *
        |q||t| of the exact one (Higham, *Accuracy and Stability of
        Numerical Algorithms*, 2002, section 3.1), so the bound holds for
        any BLAS.  Every query and tail row here comes out of
        ``l2_normalize_rows``, whose rows have norm at most nu = (1 + u) /
        ((1 - gamma_d)(1 - u)); so the two products of one path differ by
        at most delta_p = 2 gamma_d nu**2, and each is at most m_p =
        nu**2 (1 + gamma_d) in size.  In combined mode both sides compute
        fl(T + fl(beta S)); the multiply and the add each round by at most
        u times their result on either side, so

            delta = delta_T + |beta| delta_S + 2u (m_T + |beta| m_S (2 + u)).

        ``delta`` is raised by the relative ``_SLACK``, which covers the
        rounding of these few operations and the absolute error of any
        underflow, and is computed once, when the scorer is built.
        ``evaluate`` adds the rounding of its ``--alpha`` subtraction.
        """
        rows = [self._row(h, r) for h, r in pairs]
        struct = (None if self.mode == "text"
                  else self._struct_queries[rows] @ self._unit_tails.T)
        if self.mode == "struct":
            return struct, self._delta
        text = self._text_queries[rows] @ self._tail_matrix.T
        return (text if struct is None else text + self.beta * struct), self._delta


def _dot_bound(d: int) -> tuple[float, float]:
    """(delta_p, m_p) of ``ModelScorer.block_scores`` for rows of length ``d``."""
    gamma = d * _U / (1 - d * _U)
    nu2 = ((1 + _U) / ((1 - gamma) * (1 - _U))) ** 2
    return 2 * gamma * nu2, nu2 * (1 + gamma)


def _run_on_cpus(work, items) -> list:
    """``[work(item) for item in items]``, on every CPU the process may use.

    The calling thread and one helper per other usable CPU, never more
    threads than items, take the items in order from one counter, and
    each thread records no tape.  numpy's gemms and ufuncs release the
    GIL, so a ``work`` made of them runs on several cores at once; it must
    be pure, and then each result is that of the serial loop.  No thread
    starts an item above a failed one, and every thread is joined.  Each
    item below a failed one was taken before it and still runs, so the
    error raised is that of the lowest failing item, the one a serial loop
    raises.  Results come back in item order.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    results = [None] * len(items)
    errors = {}
    # a failed item, once there is one; any will do, so two failures need
    # no lock: every item below either was taken before it
    stop = len(items)
    order = itertools.count()

    def run():
        nonlocal stop
        with ad.no_grad():
            for i in order:
                if i >= stop:
                    return
                try:
                    results[i] = work(items[i])
                except BaseException as error:
                    errors[i], stop = error, i

    helpers = [threading.Thread(target=run)
               for _ in range(min(cpus, len(items)) - 1)]
    try:
        for helper in helpers:
            helper.start()
        run()
    finally:
        for helper in helpers:
            if helper.ident is not None:    # started
                helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def _encode_in_chunks(encode, keys, tokenize) -> np.ndarray:
    """Rows of ``encode(tokens, keys)`` over consecutive slices of
    ``keys``, one ``_run_on_cpus`` item each, in key order.

    Every key is tokenized first, on the calling thread.  A slice holds
    max(1, ``ENCODE_TOKENS`` // L) keys, L being the longest token list,
    so its padded batch has at most ``ENCODE_TOKENS`` rows unless one
    sequence alone has more.  Each slice is the same call on the same
    inputs as in a serial loop, so the rows are the same bytes.
    """
    tokens = [tokenize(key) for key in keys]
    size = max(1, ENCODE_TOKENS // max(map(len, tokens)))
    chunks = [(tokens[start:start + size], keys[start:start + size])
              for start in range(0, len(keys), size)]
    return np.concatenate(_run_on_cpus(lambda chunk: encode(*chunk).value, chunks))


# ---------------------------------------------------------------------------
# evaluation driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RerankConfig:
    alpha: float = 0.0
    splits: tuple[str, ...] = ("train",)

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not self.splits or any(split not in SPLITS for split in self.splits):
            raise ValueError(f"re-ranking splits must be one or more of {SPLITS}, "
                             f"got {self.splits!r}")


@dataclass
class QueryResult:
    head: int
    relation: int
    gold: int
    rank: int
    direction: str                      # "tail" or "head"
    top: list[tuple[int, float]] = field(default_factory=list)


@dataclass
class RankingReport:
    mrr: float
    hits1: float
    hits3: float
    hits10: float
    num_queries: int
    by_direction: dict[str, dict[str, float]]
    fallbacks: int = 0                  # queries ranked again from ``scores``

    def summary_lines(self) -> list[str]:
        lines = [
            "metric\tvalue",
            f"MRR\t{self.mrr:.4f}",
            f"Hits@1\t{self.hits1:.4f}",
            f"Hits@3\t{self.hits3:.4f}",
            f"Hits@10\t{self.hits10:.4f}",
            f"queries\t{self.num_queries}",
        ]
        for direction, metrics in sorted(self.by_direction.items()):
            lines.append(
                f"direction[{direction}]\tMRR={metrics['mrr']:.4f}"
                f"\tH@1={metrics['hits1']:.4f}"
            )
        return lines


def build_report(results: list[QueryResult], fallbacks: int = 0) -> RankingReport:
    if not results:
        raise ValueError("cannot report on zero queries")
    overall = aggregate([r.rank for r in results])
    by_direction = {}
    for direction in ("tail", "head"):
        ranks = [r.rank for r in results if r.direction == direction]
        if ranks:
            by_direction[direction] = aggregate(ranks)
    return RankingReport(
        mrr=overall["mrr"], hits1=overall["hits1"], hits3=overall["hits3"],
        hits10=overall["hits10"], num_queries=len(results),
        by_direction=by_direction, fallbacks=fallbacks,
    )


def _certified_top(scores: np.ndarray, top: np.ndarray, shown: int, delta: float) -> bool:
    """Whether every float64 score vector within ``delta`` of the finite
    ``scores`` gives the same first ``shown`` ids of ``top``, in the same
    order, and the same 6-decimal strings of their scores.

    ``top`` is ``top_candidates(scores, filtered, shown + 1)``.  A computed
    difference above ``2 * delta`` proves the exact one is, since rounding
    is monotone; and every float64 within ``delta`` of ``x`` lies between
    the computed ``x - delta`` and ``x + delta``; 6-decimal formatting is
    monotone too, so it prints the same as ``x`` when those two ends do.
    """
    ranked = scores[top].tolist()
    margin = 2 * delta
    return (all(a - b > margin for a, b in zip(ranked, ranked[1:]))
            and all(f"{x - delta:.6f}" == f"{x + delta:.6f}" for x in ranked[:shown]))


def _ranked(raw, gold: int, filtered: np.ndarray, neighbors, alpha: float,
            k: int | None, delta: float):
    """(re-ranked scores, filtered rank of ``gold``, top-``k`` ids or None)
    of a row within ``delta`` of the canonical one, or None when ``delta``
    > 0 and ``_rank`` or, for a top list, ``_certified_top`` cannot show
    that the canonical row gives the same; with ``delta`` 0 the rank comes
    from ``filtered_rank``.  Each side's ``rerank`` subtraction x - alpha
    rounds by at most u |x - alpha| <= u (max |raw| + delta + alpha), which
    widens a positive ``delta``.
    """
    adjusted = np.asarray(raw, dtype=np.float64)
    if alpha > 0:
        if delta:
            size = max(adjusted.max(), -adjusted.min())
            delta = (delta + _U * (2 * size + 2 * alpha + delta)) * _SLACK
        adjusted = rerank(adjusted, neighbors, alpha)
    rank = (_rank(adjusted, gold, filtered, delta) if delta
            else filtered_rank(adjusted, gold, filtered))
    if rank is None:
        return None
    top = None if k is None else top_candidates(adjusted, filtered, k)
    if delta and top is not None and not _certified_top(adjusted, top, k - 1, delta):
        return None
    return adjusted, rank, top


def evaluate(
    scorer,
    graph: KnowledgeGraph,
    split: str,
    filter_splits=DEFAULT_FILTER_SPLITS,
    rerank_config: RerankConfig | None = None,
    top_k: int | None = None,
) -> tuple[RankingReport, list[QueryResult]]:
    """Rank the gold tail of every triple in ``split``.

    Splits loaded through the dataset layer already contain inverse
    triples, so head prediction is covered by the inverse-relation
    queries of the same split.

    Queries go in blocks of ``SCORE_BLOCK``, one ``_run_on_cpus`` item
    each, so blocks are ranked on every usable CPU; a scorer's ``scores``
    and ``block_scores`` may be called from several threads at once and
    must be pure.  Every graph lookup is made on the calling thread before
    any block starts.  The scorer's ``block_scores`` proposes the block's
    rows and a bound ``delta`` on their distance from ``scores``, and each
    row is ranked once by ``_ranked``.  A proposed row it cannot certify is
    ranked again, by ``_ranked`` with ``delta`` 0 on ``scores``, and
    counted in the report's ``fallbacks``.  So ranks, top ids and printed
    scores are those of ``scores``, whatever the thread count; a kept top
    score differs from its ``scores`` value by at most ``delta``.  Each
    result lists its ``top_k`` best unfiltered candidates with their
    scores, or none when ``top_k`` is None.
    """
    if top_k is not None and top_k < 0:
        raise ValueError(f"top_k must be non-negative, got {top_k}")
    rerank_config = rerank_config or RerankConfig()
    alpha = rerank_config.alpha
    k = None if top_k is None else top_k + 1   # one more, for the certificate
    # the graph builds its lookup indexes lazily, so no helper may be the
    # first to look up a split selection
    queries = []
    for h, r, t in graph.triples(split).tolist():
        neighbors = (graph.tails_by_relation(r, rerank_config.splits)
                     if alpha > 0 else None)
        filtered = graph.tails_by_pair(h, r, filter_splits)
        queries.append((h, r, t, filtered[filtered != t], neighbors))

    def rank_block(block) -> tuple[list[QueryResult], int]:
        rows, delta = scorer.block_scores([(h, r) for h, r, *_ in block])
        results, fallbacks = [], 0
        for (h, r, t, filtered, neighbors), raw in zip(block, rows):
            ranked = _ranked(raw, t, filtered, neighbors, alpha, k, delta)
            if ranked is None:
                fallbacks += 1
                ranked = _ranked(scorer.scores(h, r), t, filtered, neighbors, alpha, k, 0.0)
            adjusted, rank, top = ranked
            direction = "head" if graph.is_inverse_relation(r) else "tail"
            result = QueryResult(h, r, t, rank, direction)
            if top_k is not None:
                shown = top[:top_k]
                result.top = list(zip(shown.tolist(), adjusted[shown].tolist()))
            results.append(result)
        return results, fallbacks

    blocks = _run_on_cpus(rank_block, [queries[start:start + SCORE_BLOCK]
                                       for start in range(0, len(queries), SCORE_BLOCK)])
    results = [result for block, _ in blocks for result in block]
    return build_report(results, sum(fallbacks for _, fallbacks in blocks)), results
