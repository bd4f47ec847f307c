"""Filtered entity ranking, relation-based re-ranking and MIOU diagnostics.

Ranks are filtered: every known-true candidate other than the queried
gold tail is ignored.  Ties are pessimistic: the gold entity ranks last
among equal scores.  Reports average over both query directions (tail
prediction and head prediction via inverse relations) and carry a
per-direction breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .graph import KnowledgeGraph
from .model import Model
from .structural import struct_queries_node, unit_entity_table
from .text import Tokenizer, tokenize_entity, tokenize_hr

SCORE_MODES = ("text", "struct", "combined")
DEFAULT_FILTER_SPLITS = ("train", "valid", "test")
# Sequences per text-encoder call when the scorer encodes its tail matrix
# and its queries.  One padded pass per chunk amortises the per-op
# overhead; the chunk bounds the (chunk, heads, L, L + 1) attention
# arrays, ~4.3 MB each at 4 heads and max_len 64, so peak memory grows
# with neither the entity count nor the query count.
ENCODE_CHUNK = 32


def _ids(ids) -> np.ndarray:
    """Candidate ids as an index array, from an array or any iterable of ints."""
    return ids if isinstance(ids, np.ndarray) else np.fromiter(ids, dtype=np.intp)


def filtered_rank(scores: np.ndarray, gold: int, filter_ids) -> int:
    """1 + the number of unfiltered non-gold candidates at or above gold.

    Candidates in ``filter_ids`` are ignored entirely.  Score ties count
    against the gold entity (pessimistic tie-breaking).
    """
    scores = np.asarray(scores, dtype=np.float64)
    filtered = _ids(filter_ids)
    if np.any(filtered == gold):
        raise ValueError(f"gold entity {gold} is in the filter set")
    keep = np.ones(len(scores), dtype=bool)
    keep[filtered] = keep[gold] = False
    return 1 + int(np.count_nonzero(keep & (scores >= scores[gold])))


def top_candidates(scores: np.ndarray, filtered, k: int) -> np.ndarray:
    """Ids of the ``k`` best candidates outside ``filtered``, by (-score, id);
    only those at or above the k-th score get sorted, all of them if any is NaN.
    """
    ids = np.delete(np.arange(len(scores)), _ids(filtered))
    neg = -scores[ids]
    if 0 < k < len(ids) and not np.isnan(neg).any():
        at_or_above = neg <= np.partition(neg, k - 1)[k - 1]
        ids, neg = ids[at_or_above], neg[at_or_above]
    return ids[np.lexsort((ids, neg))[:k]]


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


def rerank(scores: np.ndarray, neighbor_ids, alpha: float) -> np.ndarray:
    """score'(t) = score(t) - alpha * 1(t not in N_r); pure, input untouched."""
    if alpha < 0:
        raise ValueError(f"re-ranking penalty must be non-negative, got {alpha}")
    out = np.array(scores, dtype=np.float64, copy=True)
    if alpha == 0.0:
        return out
    penalty = np.full(out.shape, alpha)
    penalty[_ids(neighbor_ids)] = 0.0
    return out - penalty


def miou(graph: KnowledgeGraph, split: str = "test") -> tuple[float, dict[int, float]]:
    """Mean intersection-over-union of per-relation tail sets.

    Each relation r of the split's triples scores |e(r, train) & e(r, split)|
    over |e(r, train) | e(r, split)|, both from the graph's splits; the
    mean runs over the split's triples, so relations count with
    multiplicity.  A relation absent from train contributes 0.
    """
    relations = graph.triples(split)[:, 1].tolist()
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
    if not relations:
        return 0.0, per_relation
    mean = float(np.mean([per_relation[r] for r in relations]))
    return mean, per_relation


# ---------------------------------------------------------------------------
# scoring backends
# ---------------------------------------------------------------------------

class ModelScorer:
    """Scores every entity as tail candidate for the (head, relation)
    pairs it is built for.

    Everything is computed at construction, from the model as it is then:
    the tail text matrix and the unit-normalised entity table on the tail
    side, and on the query side the text queries of the distinct
    ``pairs`` in first-seen order and their unit structural queries in one
    batched build.  Text goes through the encoders in padded batches of
    at most ``ENCODE_CHUNK`` sequences.  The scorer keeps these arrays and
    no reference to the model, so later parameter updates do not reach it;
    ``scores`` is one or two matrix-vector products.
    """

    def __init__(self, model: Model, graph: KnowledgeGraph,
                 tokenizer: Tokenizer | None, pairs, mode: str = "text",
                 beta: float = 0.5):
        if mode not in SCORE_MODES:
            raise ValueError(f"score mode must be one of {SCORE_MODES}, got {mode!r}")
        if not math.isfinite(beta):
            raise ValueError(f"structural weight beta must be a finite number, got {beta}")
        if mode in ("text", "combined") and not model.config.use_text:
            raise ValueError(f"{mode!r} scoring needs a model with the text path")
        if mode in ("struct", "combined") and not model.config.use_ase:
            raise ValueError(f"{mode!r} scoring needs structural embeddings")
        if mode in ("text", "combined") and tokenizer is None:
            raise ValueError("text scoring needs a tokenizer")
        pairs = list(dict.fromkeys(
            map(tuple, np.asarray(pairs, dtype=np.intp).reshape(-1, 2).tolist())
        ))
        if not pairs:
            raise ValueError("a scorer needs at least one (head, relation) pair")
        self.mode = mode
        self.beta = beta
        self._rows = {pair: row for row, pair in enumerate(pairs)}
        self._tail_matrix = self._text_queries = None
        self._unit_tails = self._struct_queries = None
        with ad.no_grad():
            if mode != "struct":
                names, descs = graph.entity_names, graph.entity_descriptions
                rels, max_len = graph.relations, model.config.max_len
                self._tail_matrix = _encode_in_chunks(
                    model.encode_tails, range(graph.num_entities),
                    lambda e: tokenize_entity(tokenizer, names[e], descs[e], max_len))
                self._text_queries = _encode_in_chunks(
                    model.encode_queries, pairs,
                    lambda p: tokenize_hr(tokenizer, names[p[0]], descs[p[0]],
                                          rels[p[1]].name, rels[p[1]].description,
                                          max_len))
            if mode != "text":
                self._unit_tails = unit_entity_table(model.struct)
                heads, relations = np.array(pairs, dtype=np.intp).T
                self._struct_queries = struct_queries_node(model.struct, heads,
                                                           relations).value

    def scores(self, head: int, relation: int) -> np.ndarray:
        row = self._rows.get((head, relation))
        if row is None:
            raise KeyError(f"the scorer was not built for pair {(head, relation)}")
        struct = (None if self.mode == "text"
                  else self._unit_tails @ self._struct_queries[row])
        if self.mode == "struct":
            return struct
        text = self._tail_matrix @ self._text_queries[row]
        return text if struct is None else text + self.beta * struct


def _encode_in_chunks(encode, keys, tokenize) -> np.ndarray:
    """Rows of ``encode(tokens, keys)`` over ``ENCODE_CHUNK``-sized slices."""
    chunks = [keys[start:start + ENCODE_CHUNK] for start in range(0, len(keys), ENCODE_CHUNK)]
    return np.concatenate([encode([tokenize(key) for key in chunk], chunk).value
                           for chunk in chunks])


# ---------------------------------------------------------------------------
# evaluation driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RerankConfig:
    alpha: float = 0.0
    splits: tuple[str, ...] = ("train",)

    def __post_init__(self):
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError(
                f"re-ranking penalty alpha must be a finite non-negative number, "
                f"got {self.alpha}"
            )


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


def build_report(results: list[QueryResult]) -> RankingReport:
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
        by_direction=by_direction,
    )


def evaluate(
    scorer,
    graph: KnowledgeGraph,
    split: str,
    filter_splits=DEFAULT_FILTER_SPLITS,
    rerank_config: RerankConfig | None = None,
    collect_details: bool = False,
    top_k: int = 10,
) -> tuple[RankingReport, list[QueryResult]]:
    """Rank the gold tail of every triple in ``split``.

    Splits loaded through the dataset layer already contain inverse
    triples, so head prediction is covered by the inverse-relation
    queries of the same split.
    """
    rerank_config = rerank_config or RerankConfig()
    triples = graph.triples(split).tolist()
    results: list[QueryResult] = []
    for h, r, t in triples:
        raw = np.asarray(scorer.scores(h, r), dtype=np.float64)
        if rerank_config.alpha > 0:
            adjusted = rerank(raw, graph.tails_by_relation(r, rerank_config.splits),
                              rerank_config.alpha)
        else:
            adjusted = raw
        filtered = graph.tails_by_pair(h, r, filter_splits)
        filtered = filtered[filtered != t]
        rank = filtered_rank(adjusted, t, filtered)
        direction = "head" if graph.is_inverse_relation(r) else "tail"
        result = QueryResult(h, r, t, rank, direction)
        if collect_details:
            top = top_candidates(adjusted, filtered, top_k)
            result.top = [(i, float(adjusted[i])) for i in top.tolist()]
        results.append(result)
    return build_report(results), results
