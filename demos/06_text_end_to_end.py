"""
End-to-end training of the structure-augmented text model
==========================================================

A small corpus with unique entity names, trained with all three negative
sources (in-batch, momentum-hard, intra-relation) and the structural
loss, then evaluated with filtered ranking.  Also shows the ablation
switches that turn individual components off.
"""

import numpy as np

from structkgc.config import RunConfig
from structkgc.data import build_tokenizer
from structkgc.evaluation import ModelScorer, evaluate
from structkgc.model import Model
from structkgc.toygen import make_text_toy
from structkgc.training import Trainer

toy = make_text_toy(num_entities=30, num_relations=3, num_triples=45, seed=2)
graph = toy.graph
tokenizer = build_tokenizer(graph, min_freq=2)
print(f"{graph.num_entities} entities, vocab {len(tokenizer)}, "
      f"{len(graph.triples('train'))} training triples")

configs = [
    ("IB only", dict(use_ase=False, use_mh=False, use_ir=False)),
    ("IB+MH+ASE+IR", dict(use_ase=True, use_mh=True, use_ir=True)),
]
for name, flags in configs:
    run = RunConfig(
        struct_dim=8, layers=1, hidden_dim=16, heads=2, max_len=16,
        epochs=8, batch_size=16, lr=2e-3, queue_capacity=32, hardest_k=8,
        mh_count=8, ir_count=1, seed=0, **flags,
    )
    model = Model(
        run.model_config(graph.num_entities, graph.num_base_relations,
                         len(tokenizer)),
        seed=0,
    )
    trainer = Trainer(graph, model, tokenizer, run.train_config())
    metrics = trainer.train()
    pairs = np.concatenate([graph.triples(split)[:, :2] for split in ("train", "test")])
    scorer = ModelScorer(model, graph, tokenizer, pairs, mode="text")
    train_rep, _ = evaluate(scorer, graph, "train", filter_splits=("train",))
    test_rep, _ = evaluate(scorer, graph, "test")
    print(f"\n[{name}] final loss {metrics[-1].mean_loss:.3f} "
          f"tau {metrics[-1].tau:.3f} queue fill {metrics[-1].queue_fill:.2f}")
    print(f"  train H@1 {train_rep.hits1:.3f}  test MRR {test_rep.mrr:.3f} "
          f"(tail dir MRR {test_rep.by_direction['tail']['mrr']:.3f}, "
          f"head dir MRR {test_rep.by_direction['head']['mrr']:.3f})")
