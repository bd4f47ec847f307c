"""Scorers that tests evaluate with in place of a trained model."""

from __future__ import annotations

import numpy as np

from structkgc import autodiff as ad
from structkgc import evaluation
from structkgc.text import tokenize_hr


class TableScorer:
    """Scores straight out of a fixed lookup.

    Useful for oracle evaluations: maps (head, relation) to a precomputed
    score vector.
    """

    def __init__(self, table: dict[tuple[int, int], np.ndarray]):
        self.table = table

    def scores(self, head: int, relation: int) -> np.ndarray:
        return self.table[(head, relation)]


def encode_one_query(model, graph, tokenizer, head: int, relation: int) -> np.ndarray:
    """One (head, relation) query encoded by itself through ``model``: the
    one-query path that batched query encoding replaced."""
    tokens = tokenize_hr(tokenizer, graph, head, relation, model.config.max_len)
    with ad.no_grad():
        return model.encode_queries([tokens], [(head, relation)]).value[0]


def serial_encode_in_chunks(encode, keys, tokenize) -> np.ndarray:
    """The scorer's text rows one ``ENCODE_CHUNK`` slice after another on
    the calling thread: the loop the threaded build replaced."""
    size = evaluation.ENCODE_CHUNK
    chunks = [keys[start:start + size] for start in range(0, len(keys), size)]
    return np.concatenate([encode([tokenize(key) for key in chunk], chunk).value
                           for chunk in chunks])
