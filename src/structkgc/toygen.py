"""Synthetic desk-scale datasets used by the demos and the test suite.

Two generators:

* a planted-structure graph whose tail embeddings satisfy
  ``E_t = E_h + E_r + noise`` by construction, for exercising the
  structural path with a solvable recovery task, and
* a small text corpus with uniquely-named entities for end-to-end
  memorization runs, returned as a ``data.Dataset``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .graph import KnowledgeGraph, RelationRecord, Triple

_WORD_BANK = (
    "amber basalt cedar delta ember fjord garnet harbor iris juniper "
    "kelp lagoon marble nectar opal pearl quartz reef summit tundra "
    "umber violet willow xenon yarrow zephyr cobalt dune ferry grove"
).split()


@dataclass
class PlantedGraph:
    graph: KnowledgeGraph
    entity_vecs: np.ndarray        # (num_entities, dim)
    relation_vecs: np.ndarray      # (2 * num_base_relations, dim), inverses negated


# lattice step directions; pairwise non-antiparallel so no triple has a
# trivially duplicated reverse under a second base relation
_LATTICE_DIRS = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
    (0, 1, 1), (1, 0, 1), (1, 1, 1), (1, -1, 0),
)


def make_planted_graph(
    num_entities: int = 200,
    num_relations: int = 8,
    dim: int = 32,
    noise: float = 0.05,
    seed: int = 0,
    holdout_frac: float = 0.1,
    valid_frac: float = 0.05,
    offset_scale: float = 2.0,
) -> PlantedGraph:
    """A dense lattice graph whose planted vectors obey E_t = E_h + E_r + eps.

    Entities sit on a 3-D integer lattice embedded along three random
    orthonormal axes of the ambient space, jittered per coordinate so the
    relation residual has standard deviation ``noise``; relations are
    fixed lattice steps.  The lattice is offset from the origin along a
    fourth orthogonal axis, keeping cosine ranking well posed.  Held-out
    edges leave both endpoints with at least one remaining training edge,
    and every split carries its inverse triples.
    """
    if not 1 <= num_relations <= len(_LATTICE_DIRS):
        raise ValueError(f"need 1..{len(_LATTICE_DIRS)} relations, got {num_relations}")
    if dim < 4:
        raise ValueError(f"planted construction needs dim >= 4, got {dim}")
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(dim, 4)))[0]
    axes = basis[:, :3].T
    offset = offset_scale * basis[:, 3]

    side = int(np.ceil(num_entities ** (1.0 / 3.0)))
    cells: list[tuple[int, int, int]] = []
    for g1 in range(side + 1):
        for g2 in range(side):
            for g3 in range(side):
                if len(cells) < num_entities:
                    cells.append((g1 - side // 2, g2 - side // 2, g3 - side // 2))
    cell_id = {c: i for i, c in enumerate(cells)}

    dirs = _LATTICE_DIRS[:num_relations]
    rel_vecs = np.array([sum(a * ax for a, ax in zip(d, axes)) for d in dirs])
    vecs = np.zeros((num_entities, dim))
    for cell, i in cell_id.items():
        base = sum(a * ax for a, ax in zip(cell, axes))
        vecs[i] = offset + base + (noise / np.sqrt(2)) * rng.normal(size=dim)

    edges: list[Triple] = []
    for cell, i in cell_id.items():
        for r, d in enumerate(dirs):
            j = cell_id.get((cell[0] + d[0], cell[1] + d[1], cell[2] + d[2]))
            if j is not None:
                edges.append(Triple(i, r, j))

    degree = np.zeros(num_entities, dtype=int)
    for h, _, t in edges:
        degree[h] += 1
        degree[t] += 1
    n_test = max(1, int(round(holdout_frac * len(edges))))
    n_valid = max(1, int(round(valid_frac * len(edges))))
    order = rng.permutation(len(edges))
    test_idx, valid_idx = [], []
    remaining = degree.copy()
    for idx in order:
        h, _, t = edges[idx]
        if remaining[h] <= 1 or remaining[t] <= 1:
            continue
        if len(test_idx) < n_test:
            test_idx.append(idx)
        elif len(valid_idx) < n_valid:
            valid_idx.append(idx)
        else:
            break
        remaining[h] -= 1
        remaining[t] -= 1
    held = set(test_idx) | set(valid_idx)
    train = [e for i, e in enumerate(edges) if i not in held]
    test = [edges[i] for i in sorted(test_idx)]
    valid = [edges[i] for i in sorted(valid_idx)]

    graph = KnowledgeGraph.with_inverses(
        [f"node {i}" for i in range(num_entities)],
        [""] * num_entities,
        [RelationRecord(f"step {j}", "", j) for j in range(num_relations)],
        {"train": train, "valid": valid, "test": test},
    )
    return PlantedGraph(graph, vecs, np.vstack([rel_vecs, -rel_vecs]))


def make_text_toy(
    num_entities: int = 50,
    num_relations: int = 4,
    num_triples: int = 70,
    seed: int = 0,
    test_frac: float = 0.15,
) -> Dataset:
    """A small corpus with unique entity names and word-bank descriptions.

    Every entity appears in at least one training triple so its tokens
    reach the vocabulary (names repeat via the inverse triples).  The
    first four relations keep fixed names; further ones are numbered.
    """
    if num_triples > num_entities * num_entities * num_relations:
        raise ValueError(
            f"{num_triples} distinct triples do not fit {num_entities} entities "
            f"and {num_relations} relations"
        )
    rng = np.random.default_rng(seed)
    descriptions = [" ".join(rng.choice(_WORD_BANK, size=3, replace=False))
                    for _ in range(num_entities)]
    names = ["linked to", "part of", "variant of", "derived from"]
    names += [f"relation {j}" for j in range(len(names), num_relations)]
    base_rels = [RelationRecord(name, "", j) for j, name in enumerate(names[:num_relations])]

    seen = set()
    triples: list[Triple] = []
    for i in range(num_entities):  # coverage pass
        t = int(rng.integers(0, num_entities))
        r = int(rng.integers(0, num_relations))
        if (i, r, t) not in seen:
            seen.add((i, r, t))
            triples.append(Triple(i, r, t))
    while len(triples) < num_triples:
        h = int(rng.integers(0, num_entities))
        r = int(rng.integers(0, num_relations))
        t = int(rng.integers(0, num_entities))
        if (h, r, t) not in seen:
            seen.add((h, r, t))
            triples.append(Triple(h, r, t))

    n_test = max(1, int(round(test_frac * len(triples))))
    order = rng.permutation(len(triples))
    test = [triples[i] for i in sorted(order[:n_test])]
    train = [triples[i] for i in sorted(order[n_test:])]

    graph = KnowledgeGraph.with_inverses(
        [f"item{i}" for i in range(num_entities)], descriptions, base_rels,
        {"train": train, "test": test},
    )
    return Dataset(
        graph,
        [f"E{i:03d}" for i in range(num_entities)],
        [f"R{j}" for j in range(num_relations)],
    )
