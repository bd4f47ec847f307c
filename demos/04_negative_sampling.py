"""
Three negative sources for the contrastive losses
=================================================

The momentum queue with hardest-k selection and pairwise mixing, the
intra-relation sampler over e(r) - e(h, r), and in-batch false-negative
masking.
"""

import numpy as np

from structkgc.graph import EntityRecord, KnowledgeGraph, RelationRecord, Triple
from structkgc.negatives import (
    MomentumQueue,
    in_batch_mask,
    mix_hard_negatives,
    sample_intra_relation,
)

rng = np.random.default_rng(0)

# FIFO queue of unit-norm momentum features
queue = MomentumQueue(capacity=8, dim=4)
feats = rng.normal(size=(12, 4))
feats /= np.linalg.norm(feats, axis=1, keepdims=True)
queue.push(feats)
print(f"pushed 12 into capacity 8 -> size {len(queue)} (oldest evicted)")

probe = feats[-1]
top = queue.hardest(probe, tau=0.05, k=3)
print("hardest-3 logits:", np.round(top @ probe / 0.05, 2), "(descending)")

mixed, fallback = mix_hard_negatives(top, count=5, rng=rng)
print("mixed negatives unit norms:", np.round(np.linalg.norm(mixed, axis=1), 12))

# intra-relation negatives: tails of r not linked to this head
ents = [EntityRecord(f"e{i}", "", i) for i in range(5)]
rels = [RelationRecord("r", "", 0)]
train = [Triple(0, 0, 2), Triple(0, 0, 3), Triple(1, 0, 4)]
graph = KnowledgeGraph(ents, rels, {"train": train})
print("\ne(r) =", graph.tails_by_relation(0).tolist(),
      " e(e0, r) =", graph.tails_by_pair(0, 0).tolist())
print("intra-relation negatives for (e0, r):",
      sample_intra_relation(graph, 0, 0, 3, rng), "(only e4 qualifies)")

# in-batch mask: positives and train-true pairs leave the negative sum
mask = in_batch_mask([(0, 0), (1, 0)], [2, 4], graph)
print("\nin-batch mask (True = excluded):")
print(mask)
