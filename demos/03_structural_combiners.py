"""
Structural combiners and the KV-prefix projector
================================================

The three head+relation combiners (additive, Hadamard, rotation), the
cosine structural score, and the projection of a combined vector into
per-layer key/value prefixes for the text encoder: one projection whose
column blocks are each layer's key and value.
"""

import numpy as np

from structkgc import autodiff as ad
from structkgc.structural import (
    AseKind,
    PrefixProjector,
    StructuralTable,
    ase_apply_node,
    struct_scores_all_tails,
)


def combine(kind, h, r):
    return ase_apply_node(kind, ad.Node(h), ad.Node(r)).value


rng = np.random.default_rng(0)

print("additive [1,2] + [3,-1]      =", combine(AseKind.ADDITIVE, [1, 2], [3, -1]))
print("hadamard [2,3] * [1,0]       =", combine(AseKind.HADAMARD, [2, 3], [1, 0]))
print("rotation (1,0) by phase (0,1) =",
      combine(AseKind.ROTATION, [1.0, 0.0], [0.0, 1.0]), "(a quarter turn)")

# rotation is an isometry even for unnormalized phase parameters
h = rng.normal(size=(1, 8))
r = rng.normal(size=(1, 8)) * 3.7
out = combine(AseKind.ROTATION, h, r)
print(f"rotation norms: in {np.linalg.norm(h):.6f} out {np.linalg.norm(out):.6f}")

# plant E_t = E_h + E_r: the true tail is the argmax over all entities
table = StructuralTable(30, 2, 16, AseKind.ADDITIVE, rng)
ents = table.entity_embeddings.value
rels = table.relation_embeddings.value
ents[17] = ents[4] + rels[1]
scores = struct_scores_all_tails(table, 4, 1)
print("\nplanted score (4, r1, 17):", f"{scores[17]:.6f}")
print("argmax over all 30 tails  :", int(np.argmax(scores)))

# a combined vector projects to one node that every encoder layer reads:
# layer i's attention takes its key block from column `start` and its
# value block from the hidden_dim columns after it
proj = PrefixProjector(struct_dim=16, layers=2, hidden_dim=8, rng=rng)
prefixes = proj.project(ad.Node(ents[4] + rels[1]))
d = proj.hidden_dim
print(f"\none projection node {prefixes[0][0].value.shape} for {len(prefixes)} layers")
for i, (node, start) in enumerate(prefixes):
    key = node.value[0, start:start + d]
    value = node.value[0, start + d:start + 2 * d]
    print(f"layer {i}: key   columns {start:2d}..{start + d - 1:2d}", np.round(key, 3))
    print(f"         value columns {start + d:2d}..{start + 2 * d - 1:2d}", np.round(value, 3))
