"""Scorers that tests evaluate with in place of a trained model."""

from __future__ import annotations

import numpy as np


class TableScorer:
    """Scores straight out of a fixed lookup.

    Useful for oracle evaluations: maps (head, relation) to a precomputed
    score vector.
    """

    def __init__(self, table: dict[tuple[int, int], np.ndarray]):
        self.table = table

    def scores(self, head: int, relation: int) -> np.ndarray:
        return self.table[(head, relation)]
