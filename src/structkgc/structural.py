"""Trainable structural embeddings, the adaptable combiner and KV-prefix maps.

Three combiner kinds are supported: additive (h + r), Hadamard (h * r)
and rotation (complex pairwise product with phase-normalized relation
pairs).  Scores are safe-normalized cosines, so all structural scores
live in [-1, 1].

Scores are computed two ways: plain-numpy functions score every tail
for one query at evaluation time, and Node-graph builders score a batch
for the training loss.  Both normalise with the same eps clamp, and
tests pin them to each other.
"""

from __future__ import annotations

import enum

import numpy as np

from . import autodiff as ad
from .autodiff import Node

COSINE_EPS = 1e-12


class AseKind(enum.Enum):
    ADDITIVE = "additive"
    HADAMARD = "hadamard"
    ROTATION = "rotation"


def init_embedding(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    """Uniform init in [-0.5/sqrt(dim), 0.5/sqrt(dim)]."""
    bound = 0.5 / np.sqrt(dim)
    return rng.uniform(-bound, bound, size=(rows, dim))


class StructuralTable:
    """Entity and relation embedding tables held as graph leaves.

    Relation rows cover base relations and their inverses
    (``2 * num_base_relations`` rows).
    """

    def __init__(self, num_entities: int, num_base_relations: int, dim: int,
                 kind: AseKind, rng: np.random.Generator):
        if kind is AseKind.ROTATION and dim % 2 != 0:
            raise ValueError(
                f"rotation combiner needs an even embedding dim, got {dim}"
            )
        self.dim = dim
        self.kind = kind
        self.num_entities = num_entities
        self.num_base_relations = num_base_relations
        self.entity_embeddings = Node(init_embedding(rng, num_entities, dim))
        self.relation_embeddings = Node(
            init_embedding(rng, 2 * num_base_relations, dim)
        )

    def parameters(self) -> dict[str, Node]:
        return {
            "struct.entities": self.entity_embeddings,
            "struct.relations": self.relation_embeddings,
        }


# ---------------------------------------------------------------------------
# plain numpy path (evaluation)
# ---------------------------------------------------------------------------

def _normalize_pairs_np(r: np.ndarray, eps: float = COSINE_EPS) -> np.ndarray:
    pairs = r.reshape(-1, 2)
    mod = np.linalg.norm(pairs, axis=1, keepdims=True)
    out = pairs / np.where(mod > eps, mod, eps)
    return out.reshape(r.shape)


def ase_apply(kind: AseKind, e_h: np.ndarray, e_r: np.ndarray) -> np.ndarray:
    """Combine head and relation embeddings; operates row-wise on 2-D input."""
    e_h = np.atleast_2d(np.asarray(e_h, dtype=np.float64))
    e_r = np.atleast_2d(np.asarray(e_r, dtype=np.float64))
    if e_h.shape != e_r.shape:
        raise ValueError(f"combiner shape mismatch: {e_h.shape} vs {e_r.shape}")
    if kind is AseKind.ADDITIVE:
        return e_h + e_r
    if kind is AseKind.HADAMARD:
        return e_h * e_r
    if kind is AseKind.ROTATION:
        if e_h.shape[1] % 2 != 0:
            raise ValueError("rotation combiner needs an even embedding dim")
        r_hat = _normalize_pairs_np(e_r)
        h_re, h_im = e_h[:, 0::2], e_h[:, 1::2]
        r_re, r_im = r_hat[:, 0::2], r_hat[:, 1::2]
        out = np.empty_like(e_h)
        out[:, 0::2] = h_re * r_re - h_im * r_im
        out[:, 1::2] = h_re * r_im + h_im * r_re
        return out
    raise ValueError(f"unknown combiner kind: {kind}")


def unit_rows(x: np.ndarray, eps: float = COSINE_EPS) -> np.ndarray:
    """Rows scaled to unit length; a row shorter than eps is divided by eps."""
    norm = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norm > eps, norm, eps)


def safe_cosine(a: np.ndarray, b: np.ndarray, eps: float = COSINE_EPS) -> np.ndarray:
    """Row-wise cosine with the same near-zero clamp the graph path uses."""
    an = unit_rows(np.atleast_2d(a), eps)
    bn = unit_rows(np.atleast_2d(b), eps)
    return (an * bn).sum(axis=1)


def struct_score(table: StructuralTable, kind: AseKind, head: int, relation: int,
                 tail: int) -> float:
    """Cosine between the combined (head, relation) vector and the tail."""
    e = table.entity_embeddings.value
    r = table.relation_embeddings.value
    combined = ase_apply(kind, e[head], r[relation])
    return float(safe_cosine(combined, e[tail])[0])


def struct_scores_all_tails(table: StructuralTable, kind: AseKind, head: int,
                            relation: int,
                            unit_tails: np.ndarray | None = None) -> np.ndarray:
    """Scores of every entity as candidate tail for one (head, relation).

    ``unit_tails`` is ``unit_rows`` of the entity table, for callers that
    score many queries against one snapshot of it; it is computed here
    when not given.
    """
    e = table.entity_embeddings.value
    r = table.relation_embeddings.value
    combined = ase_apply(kind, e[head], r[relation])[0]
    norm = np.linalg.norm(combined)
    combined = combined / (norm if norm > COSINE_EPS else COSINE_EPS)
    if unit_tails is None:
        unit_tails = unit_rows(e)
    return unit_tails @ combined


# ---------------------------------------------------------------------------
# graph path (training)
# ---------------------------------------------------------------------------

def ase_apply_node(kind: AseKind, e_h: Node, e_r: Node) -> Node:
    if kind is AseKind.ADDITIVE:
        return ad.add(e_h, e_r)
    if kind is AseKind.HADAMARD:
        return ad.mul(e_h, e_r)
    if kind is AseKind.ROTATION:
        return ad.paired_rotation(e_h, e_r, COSINE_EPS)
    raise ValueError(f"unknown combiner kind: {kind}")


def struct_score_matrix_node(table: StructuralTable, kind: AseKind,
                             heads, relations, tails) -> Node:
    """(B, B) matrix of struct scores: row = query, column = batch tail.

    Row q, column j holds cos(combine(E_h[q], E_r[q]), E_t[j]); the
    diagonal is the positive score of each query.
    """
    e_h = ad.gather_rows(table.entity_embeddings, heads)
    e_r = ad.gather_rows(table.relation_embeddings, relations)
    e_t = ad.gather_rows(table.entity_embeddings, tails)
    combined = ad.l2_normalize_rows(ase_apply_node(kind, e_h, e_r), COSINE_EPS)
    tails_n = ad.l2_normalize_rows(e_t, COSINE_EPS)
    return ad.matmul(combined, ad.transpose(tails_n))


# ---------------------------------------------------------------------------
# KV-prefix projector
# ---------------------------------------------------------------------------

class PrefixProjector:
    """Linear map from a structural vector to per-layer (key, value) prefixes.

    The projection output reshapes to ``layers`` rows of keys interleaved
    with values (layer-major, key before value), each of width
    ``hidden_dim``.
    """

    def __init__(self, struct_dim: int, layers: int, hidden_dim: int,
                 rng: np.random.Generator, name: str = "prefix"):
        self.struct_dim = struct_dim
        self.layers = layers
        self.hidden_dim = hidden_dim
        self.name = name
        self.weight = Node(
            init_embedding(rng, struct_dim, 2 * layers * hidden_dim)
        )

    def parameters(self) -> dict[str, Node]:
        return {f"{self.name}.weight": self.weight}

    def project(self, vec: Node) -> list[tuple[Node, Node]]:
        """Project a (1, struct_dim) vector to [(key, value)] per layer."""
        if vec.value.shape != (1, self.struct_dim):
            raise ValueError(
                f"prefix input shape {vec.value.shape} does not match "
                f"struct dim {self.struct_dim}"
            )
        flat = ad.matmul(vec, self.weight)  # (1, 2*l*d)
        rows = ad.reshape(flat, 2 * self.layers, self.hidden_dim)
        out = []
        for layer in range(self.layers):
            key = ad.gather_rows(rows, [2 * layer])
            value = ad.gather_rows(rows, [2 * layer + 1])
            out.append((key, value))
        return out


def project_prefix(projector: PrefixProjector, vec: Node) -> list[tuple[Node, Node]]:
    return projector.project(vec)
