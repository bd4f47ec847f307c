"""Trainable structural embeddings, the adaptable combiner and KV-prefix maps.

Three combiner kinds are supported: additive (h + r), Hadamard (h * r)
and rotation (complex pairwise product with phase-normalized relation
pairs).  Scores are safe-normalized cosines, so all structural scores
live in [-1, 1].

Scores are built once, as Node graphs: the training loss takes the
(B, B) batch matrix, and evaluation reads ``.value`` of the same query
builder, batched over the pairs it scores, and of the same row
normalisation to score every tail.
"""

from __future__ import annotations

import enum

import numpy as np

from . import autodiff as ad
from .autodiff import Node

class AseKind(enum.Enum):
    ADDITIVE = "additive"
    HADAMARD = "hadamard"
    ROTATION = "rotation"


def init_embedding(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    """Uniform init in [-0.5/sqrt(dim), 0.5/sqrt(dim)]."""
    bound = 0.5 / np.sqrt(dim)
    return rng.uniform(-bound, bound, size=(rows, dim))


class StructuralTable:
    """Entity and relation embedding tables held as graph leaves, and the
    combiner that joins a head row with a relation row.

    Relation rows cover base relations and their inverses
    (``2 * num_base_relations`` rows).
    """

    def __init__(self, num_entities: int, num_base_relations: int, dim: int,
                 kind: AseKind, rng: np.random.Generator | None,
                 loaded: ad.LoadedValues | None = None):
        if kind is AseKind.ROTATION and dim % 2 != 0:
            raise ValueError(
                f"rotation combiner needs an even embedding dim, got {dim}"
            )
        self.kind = kind

        def uniform(rows, cols):
            return init_embedding(rng, rows, cols)

        self.entity_embeddings = ad.parameter(
            "struct.entities", (num_entities, dim), uniform, loaded)
        self.relation_embeddings = ad.parameter(
            "struct.relations", (2 * num_base_relations, dim), uniform, loaded)

    def parameters(self) -> dict[str, Node]:
        return {
            "struct.entities": self.entity_embeddings,
            "struct.relations": self.relation_embeddings,
        }

    def combine(self, heads, relations) -> Node:
        """(B, dim) rows of combine(E_h, E_r) under this table's combiner."""
        e_h = ad.gather_rows(self.entity_embeddings, heads)
        e_r = ad.gather_rows(self.relation_embeddings, relations)
        return ase_apply_node(self.kind, e_h, e_r)


# ---------------------------------------------------------------------------
# combine, normalise and score
# ---------------------------------------------------------------------------

def ase_apply_node(kind: AseKind, e_h: Node, e_r: Node) -> Node:
    if kind is AseKind.ADDITIVE:
        return ad.add(e_h, e_r)
    if kind is AseKind.HADAMARD:
        return ad.mul(e_h, e_r)
    if kind is AseKind.ROTATION:
        return ad.paired_rotation(e_h, e_r)
    raise ValueError(f"unknown combiner kind: {kind}")


def struct_queries_node(table: StructuralTable, heads, relations) -> Node:
    """(B, dim) unit rows of combine(E_h, E_r), one per query."""
    return ad.l2_normalize_rows(table.combine(heads, relations))


def unit_entity_table(table: StructuralTable) -> np.ndarray:
    """Every entity row scaled to unit length, as candidate tails."""
    return ad.l2_normalize_rows(table.entity_embeddings).value


def struct_score_matrix_node(table: StructuralTable, heads, relations,
                             tails) -> Node:
    """(B, B) matrix of struct scores: row = query, column = batch tail.

    Row q, column j holds cos(combine(E_h[q], E_r[q]), E_t[j]); the
    diagonal is the positive score of each query.
    """
    queries = struct_queries_node(table, heads, relations)
    e_t = ad.gather_rows(table.entity_embeddings, tails)
    tails_n = ad.l2_normalize_rows(e_t)
    return ad.matmul(queries, ad.transpose(tails_n))


def struct_scores_all_tails(table: StructuralTable, head: int, relation: int) -> np.ndarray:
    """Scores of every entity as candidate tail for one (head, relation)."""
    query = struct_queries_node(table, [head], [relation]).value[0]
    return unit_entity_table(table) @ query


# ---------------------------------------------------------------------------
# KV-prefix projector
# ---------------------------------------------------------------------------

class PrefixProjector:
    """Linear map from a structural vector to per-layer (key, value) prefixes.

    Each projected row splits into ``layers`` keys interleaved with
    values (layer-major, key before value), each of width ``hidden_dim``.
    """

    def __init__(self, struct_dim: int, layers: int, hidden_dim: int,
                 rng: np.random.Generator | None, name: str = "prefix",
                 loaded: ad.LoadedValues | None = None):
        self.struct_dim = struct_dim
        self.layers = layers
        self.hidden_dim = hidden_dim
        self.name = name
        self.weight = ad.parameter(
            f"{name}.weight", (struct_dim, 2 * layers * hidden_dim),
            lambda rows, cols: init_embedding(rng, rows, cols), loaded)

    def parameters(self) -> dict[str, Node]:
        return {f"{self.name}.weight": self.weight}

    def project(self, vecs: Node) -> list[tuple[Node, int]]:
        """Project (B, struct_dim) vectors to one node, row b from vector b,
        and pair it with each layer's key column, 2 * layer * hidden_dim: the
        ``prefix`` of :func:`autodiff.attention_sublayer`."""
        if vecs.value.shape[1] != self.struct_dim:
            raise ValueError(
                f"prefix input shape {vecs.value.shape} does not match "
                f"struct dim {self.struct_dim}"
            )
        flat = ad.matmul(vecs, self.weight)
        return [(flat, 2 * layer * self.hidden_dim) for layer in range(self.layers)]
