"""
Relation-based re-ranking and when it helps
===========================================

Re-ranking subtracts a penalty from candidates outside a relation's
known tail-neighbor set.  Whether that helps depends on how much the
train-side and test-side tail sets overlap, which the MIOU diagnostic
measures: with low overlap the gold tails themselves get penalized and
MRR drops; with high overlap the penalty only hits distractors.
"""

import numpy as np

from structkgc.evaluation import RerankConfig, evaluate, miou
from structkgc.graph import EntityRecord, KnowledgeGraph, RelationRecord, Triple

rng = np.random.default_rng(3)


class TableScorer:
    def __init__(self, table):
        self.table = table

    def scores(self, h, r):
        return self.table[(h, r)]

    def block_scores(self, pairs):
        return [self.table[pair] for pair in pairs], 0.0


def build_world(overlap):
    n = 40
    ents = [EntityRecord(f"e{i}", "", i) for i in range(n)]
    rels = [RelationRecord("r", "", 0)]
    train_tails = list(range(10, 20))
    test_tails = train_tails if overlap == "high" else list(range(20, 30))
    train = [Triple(h, 0, t) for h, t in zip(range(10), train_tails)]
    test = [Triple(30 + i, 0, t) for i, t in enumerate(test_tails)]
    graph = KnowledgeGraph(ents, rels, {"train": train, "test": test})
    scores = {}
    for h, r, t in graph.triples("test"):
        row = rng.uniform(0.0, 1.0, size=n)
        row[t] = 0.75  # decent but imperfect base model
        scores[(h, r)] = row
    return graph, TableScorer(scores)


for overlap in ("low", "high"):
    graph, scorer = build_world(overlap)
    value, _ = miou(graph)
    base, _ = evaluate(scorer, graph, "test")
    print(f"\n{overlap}-overlap world: MIOU {value:.2f}, baseline MRR {base.mrr:.3f}")
    for alpha in (0.05, 0.2, 0.5):
        rr, _ = evaluate(scorer, graph, "test",
                         rerank_config=RerankConfig(alpha=alpha, splits=("train",)))
        arrow = "improves" if rr.mrr > base.mrr else "degrades"
        print(f"  alpha={alpha:4.2f}: MRR {rr.mrr:.3f} ({arrow})")
