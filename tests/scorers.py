"""Scorers that tests evaluate with in place of a trained model."""

from __future__ import annotations

import numpy as np

from structkgc import autodiff as ad
from structkgc import evaluation
from structkgc.text import tokenize_hr


class TableScorer:
    """Scores straight out of a fixed lookup.

    Useful for oracle evaluations: maps (head, relation) to a precomputed
    score vector, and proposes those rows with ``delta`` 0, so ``evaluate``
    ranks them as they are.
    """

    def __init__(self, table: dict[tuple[int, int], np.ndarray]):
        self.table = table

    def scores(self, head: int, relation: int) -> np.ndarray:
        return self.table[(head, relation)]

    def block_scores(self, pairs):
        return [self.table[pair] for pair in pairs], 0.0


def encode_one_query(model, graph, tokenizer, head: int, relation: int) -> np.ndarray:
    """One (head, relation) query encoded by itself through ``model``: the
    one-query path that batched query encoding replaced."""
    tokens = tokenize_hr(tokenizer, graph, head, relation, model.config.max_len)
    with ad.no_grad():
        return model.encode_queries([tokens], [(head, relation)]).value[0]


def serial_encode_in_chunks(encode, keys, tokenize) -> np.ndarray:
    """The scorer's text rows one slice of max(1, ``ENCODE_TOKENS`` //
    longest token list) keys after another on the calling thread: the loop
    the threaded build replaced."""
    tokens = [tokenize(key) for key in keys]
    size = max(1, evaluation.ENCODE_TOKENS // max(len(seq) for seq in tokens))
    return np.concatenate([encode(tokens[start:start + size], keys[start:start + size]).value
                           for start in range(0, len(keys), size)])


def serial_evaluate(scorer, graph, split, filter_splits=evaluation.DEFAULT_FILTER_SPLITS,
                    rerank_config=None, top_k=None):
    """``evaluate``'s blocks one after another on the calling thread, each
    graph lookup made as its query is ranked: the loop the threaded
    ranking replaced."""
    if top_k is not None and top_k < 0:
        raise ValueError(f"top_k must be non-negative, got {top_k}")
    rerank_config = rerank_config or evaluation.RerankConfig()
    alpha = rerank_config.alpha
    k = None if top_k is None else top_k + 1   # one more, for the certificate
    triples = graph.triples(split).tolist()
    results = []
    fallbacks = 0
    for start in range(0, len(triples), evaluation.SCORE_BLOCK):
        block = triples[start:start + evaluation.SCORE_BLOCK]
        rows, delta = scorer.block_scores([(h, r) for h, r, _ in block])
        for (h, r, t), raw in zip(block, rows):
            neighbors = (graph.tails_by_relation(r, rerank_config.splits)
                         if alpha > 0 else None)
            filtered = graph.tails_by_pair(h, r, filter_splits)
            filtered = filtered[filtered != t]
            ranked = evaluation._ranked(raw, t, filtered, neighbors, alpha, k, delta)
            if ranked is None:
                fallbacks += 1
                ranked = evaluation._ranked(scorer.scores(h, r), t, filtered, neighbors,
                                            alpha, k, 0.0)
            adjusted, rank, top = ranked
            direction = "head" if graph.is_inverse_relation(r) else "tail"
            result = evaluation.QueryResult(h, r, t, rank, direction)
            if top_k is not None:
                shown = top[:top_k]
                result.top = list(zip(shown.tolist(), adjusted[shown].tolist()))
            results.append(result)
    return evaluation.build_report(results, fallbacks), results
