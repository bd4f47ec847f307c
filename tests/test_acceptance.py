"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them).  Tolerances and budgets are pinned in the constants below.
"""

import time

import numpy as np
import pytest

from structkgc import autodiff as ad
from structkgc.autodiff import Node
from structkgc.cli import main
from structkgc.data import build_tokenizer, write_dataset
from structkgc.evaluation import (
    RerankConfig,
    ModelScorer,
    aggregate,
    evaluate,
    filtered_rank,
    miou,
    rerank,
)
from structkgc.graph import EntityRecord, KnowledgeGraph, RelationRecord, Triple
from structkgc.model import Model, ModelConfig
from structkgc.negatives import (
    MomentumQueue,
    mix_hard_negatives,
    sample_intra_relation,
)
from structkgc.structural import AseKind, PrefixProjector
from structkgc.toygen import make_planted_graph, make_text_toy
from structkgc.training import TrainConfig, Trainer

from gradcheck import assert_gradients_match
from scorers import TableScorer
from test_autodiff import _primitive_cases
from test_evaluation import oracle_rank

GRAD_SEEDS = 20
GRAD_RTOL = 1e-4
GRAD_RTOL_END_TO_END = 1e-3
GRAD_BUDGET_S = 60.0
ORACLE_INSTANCES = 1000
ORACLE_BUDGET_S = 30.0
PLANTED_ORACLE_MRR = 0.95
PLANTED_TRAINED_MRR = 0.80
PLANTED_BUDGET_S = 300.0
MEMORIZE_H1 = 0.90
MEMORIZE_BUDGET_S = 300.0
SAMPLER_BUDGET_S = 30.0
UNIT_NORM_TOL = 1e-9


def report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} [{name}]: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient integrity
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_integrity():
    start = time.time()
    for seed in range(GRAD_SEEDS):
        rng = np.random.default_rng(20_000 + seed)
        for name, (build, arrays) in _primitive_cases(rng).items():
            try:
                assert_gradients_match(build, arrays, rtol=GRAD_RTOL)
            except AssertionError as e:
                report(1, "gradient-integrity", False, f"{name} seed {seed}: {e}")

    # end-to-end loss through a 2-layer, d=8 encoder with prefixes
    from structkgc.text import TextEncoder

    enc = TextEncoder(
        ModelConfig(num_entities=1, num_base_relations=1, layers=2, hidden_dim=8,
                    heads=2, max_len=12, vocab_size=14),
        np.random.default_rng(7), name="e2e",
    )
    proj = PrefixProjector(4, 2, 8, np.random.default_rng(8))
    tokens = [2, 5, 9, 11, 3]
    rng = np.random.default_rng(9)
    target = rng.normal(size=(8, 1))
    leaves = [
        np.array([[0.4, -0.1, 0.2, 0.3]]),
        enc.layers[0]["wq"].value,
        enc.layers[1]["w1"].value,
        enc.tok_emb.value,
        proj.weight.value,
    ]

    def build(ls):
        vec, wq0, w11, tok, wp = ls
        enc.layers[0]["wq"] = wq0
        enc.layers[1]["w1"] = w11
        enc.tok_emb = tok
        proj.weight = wp
        pooled = enc.encode([tokens], proj.project(vec))
        return ad.matmul(pooled, Node(target))

    try:
        assert_gradients_match(build, leaves, rtol=GRAD_RTOL_END_TO_END)
    except AssertionError as e:
        report(1, "gradient-integrity", False, f"end-to-end: {e}")
    elapsed = time.time() - start
    report(1, "gradient-integrity", elapsed < GRAD_BUDGET_S,
           f"({GRAD_SEEDS} seeds per primitive + end-to-end, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. ranking oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_ranking_oracles():
    start = time.time()
    rng = np.random.default_rng(31)

    for _ in range(ORACLE_INSTANCES):
        n = int(rng.integers(2, 25))
        scores = rng.integers(0, 5, size=n).astype(float) / 4.0
        gold = int(rng.integers(0, n))
        others = [i for i in range(n) if i != gold]
        rng.shuffle(others)
        filt = set(others[: int(rng.integers(0, len(others) + 1))])
        if filtered_rank(scores, gold, filt) != oracle_rank(scores, gold, filt):
            report(2, "ranking-oracles", False, "filtered_rank mismatch")

    for _ in range(ORACLE_INSTANCES):
        ranks = rng.integers(1, 30, size=int(rng.integers(1, 15)))
        out = aggregate(ranks)
        expected_mrr = sum(1.0 / r for r in ranks) / len(ranks)
        if abs(out["mrr"] - expected_mrr) > 1e-12:
            report(2, "ranking-oracles", False, "aggregate mismatch")
        for k, key in ((1, "hits1"), (3, "hits3"), (10, "hits10")):
            if out[key] != sum(1 for r in ranks if r <= k) / len(ranks):
                report(2, "ranking-oracles", False, "hits mismatch")

    for _ in range(ORACLE_INSTANCES):
        n = int(rng.integers(1, 20))
        scores = rng.uniform(-1, 1, size=n)
        members = {int(i) for i in rng.integers(0, n, size=int(rng.integers(0, n)))}
        alpha = float(rng.uniform(0, 1))
        out = rerank(scores, members, alpha)
        for i in range(n):
            expected = scores[i] - (0.0 if i in members else alpha)
            if out[i] != pytest.approx(expected, abs=1e-15):
                report(2, "ranking-oracles", False, "rerank mismatch")

    for _ in range(ORACLE_INSTANCES):
        n_e, n_r = int(rng.integers(3, 9)), int(rng.integers(1, 4))
        ents = [EntityRecord(f"e{i}", "", i) for i in range(n_e)]
        rels = [RelationRecord(f"r{i}", "", i) for i in range(n_r)]
        def rand(k):
            return [
                Triple(int(rng.integers(0, n_e)), int(rng.integers(0, n_r)),
                       int(rng.integers(0, n_e)))
                for _ in range(k)
            ]
        g = KnowledgeGraph(ents, rels, {
            "train": rand(int(rng.integers(1, 12))),
            "test": rand(int(rng.integers(1, 8))),
        })
        value, _ = miou(g)
        expected = []
        for _, r, _ in g.triples("test").tolist():
            tr = {t for _, q, t in g.triples("train").tolist() if q == r}
            te = {t for _, q, t in g.triples("test").tolist() if q == r}
            expected.append(len(tr & te) / len(tr | te) if tr else 0.0)
        if abs(value - float(np.mean(expected))) > 1e-12:
            report(2, "ranking-oracles", False, "miou mismatch")

    elapsed = time.time() - start
    report(2, "ranking-oracles", elapsed < ORACLE_BUDGET_S,
           f"(4 x {ORACLE_INSTANCES} instances, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. planted-structure recovery
# ---------------------------------------------------------------------------

def _held_out_mrr(model, g):
    """Held-out MRR of the model's structural scores, ranked as ``structkgc
    eval --score-mode struct`` ranks them."""
    scorer = ModelScorer(model, g, None, g.triples("test")[:, :2], mode="struct")
    return evaluate(scorer, g, "test")[0].mrr


def test_criterion_3_planted_structure_recovery():
    start = time.time()
    planted = make_planted_graph(num_entities=200, num_relations=8, dim=32,
                                 noise=0.05, seed=42, holdout_frac=0.1)
    g = planted.graph
    cfg = ModelConfig(
        num_entities=g.num_entities, num_base_relations=g.num_base_relations,
        struct_dim=32, use_text=False, use_ase=True, vocab_size=0,
    )

    oracle = Model(cfg)
    oracle.struct.entity_embeddings.value = planted.entity_vecs
    oracle.struct.relation_embeddings.value = planted.relation_vecs
    oracle_mrr = _held_out_mrr(oracle, g)
    report(3, "planted-oracle", oracle_mrr >= PLANTED_ORACLE_MRR,
           f"(oracle MRR {oracle_mrr:.3f} >= {PLANTED_ORACLE_MRR})")

    model = Model(cfg, seed=1)
    # zero margin and a low temperature floor: the planted lattice's
    # angular score gaps are a few percent, smaller than the textual
    # margin default
    trainer = Trainer(
        g, model, None,
        TrainConfig(margin=0.0, tau_min=0.003, epochs=300, batch_size=128,
                    lr=5e-3, use_mh=False, use_ir=False, seed=1),
    )
    mrr = 0.0
    for epoch in range(1, trainer.cfg.epochs + 1):
        trainer.train_epoch(epoch)
        if epoch >= 100 and epoch % 50 == 0:
            mrr = _held_out_mrr(model, g)
            if mrr >= 0.9:
                break
    if mrr < 0.9:
        mrr = _held_out_mrr(model, g)
    elapsed = time.time() - start
    report(3, "planted-recovery",
           mrr >= PLANTED_TRAINED_MRR and elapsed < PLANTED_BUDGET_S,
           f"(trained MRR {mrr:.3f} >= {PLANTED_TRAINED_MRR}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 4. memorization witness
# ---------------------------------------------------------------------------

def test_criterion_4_memorization_witness():
    start = time.time()
    toy = make_text_toy(num_entities=50, num_relations=4, num_triples=70, seed=5)
    g = toy.graph
    tokenizer = build_tokenizer(g, min_freq=2)
    cfg = ModelConfig(
        num_entities=g.num_entities, num_base_relations=g.num_base_relations,
        struct_dim=16, layers=2, hidden_dim=32, heads=2, max_len=16,
        vocab_size=len(tokenizer), ase_kind=AseKind.ADDITIVE,
    )
    model = Model(cfg, seed=0)
    trainer = Trainer(
        g, model, tokenizer,
        TrainConfig(beta=0.5, epochs=40, batch_size=16, lr=2e-3, use_mh=True,
                    use_ir=True, queue_capacity=128, hardest_k=16,
                    mh_count=16, ir_count=2, seed=0),
    )
    hits1 = 0.0
    for epoch in range(1, trainer.cfg.epochs + 1):
        trainer.train_epoch(epoch)
        if epoch >= 20 and epoch % 5 == 0:
            scorer = ModelScorer(model, g, tokenizer, g.triples("train")[:, :2],
                                 mode="text")
            rep, _ = evaluate(scorer, g, "train", filter_splits=("train",))
            hits1 = rep.hits1
            if hits1 >= 0.92:
                break
    if hits1 < 0.92:
        scorer = ModelScorer(model, g, tokenizer, g.triples("train")[:, :2],
                             mode="text")
        rep, _ = evaluate(scorer, g, "train", filter_splits=("train",))
        hits1 = rep.hits1
    elapsed = time.time() - start
    report(4, "memorization-witness",
           hits1 >= MEMORIZE_H1 and elapsed < MEMORIZE_BUDGET_S,
           f"(train H@1 {hits1:.3f} >= {MEMORIZE_H1}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 5. ablation configurations
# ---------------------------------------------------------------------------

def test_criterion_5_ablation_table():
    from structkgc.config import RunConfig

    toy = make_text_toy(num_entities=12, num_relations=2, num_triples=18, seed=3)
    g = toy.graph
    tokenizer = build_tokenizer(g, min_freq=2)
    ablations = [
        ("IB", dict(use_ase=False, use_mh=False, use_ir=False)),
        ("IB+MH", dict(use_ase=False, use_mh=True, use_ir=False)),
        ("IB+ASE", dict(use_ase=True, use_mh=False, use_ir=False)),
        ("IB+IR", dict(use_ase=False, use_mh=False, use_ir=True)),
    ]
    table = []
    for name, flags in ablations:
        run_cfg = RunConfig(
            struct_dim=8, layers=1, hidden_dim=16, heads=2, max_len=16,
            epochs=1, batch_size=8, lr=1e-3, queue_capacity=16, hardest_k=4,
            mh_count=4, ir_count=1, seed=0, **flags,
        )
        model = Model(
            run_cfg.model_config(g.num_entities, g.num_base_relations,
                                 len(tokenizer)),
            seed=0,
        )
        trainer = Trainer(g, model, tokenizer, run_cfg.train_config())
        trainer.train()
        scorer = ModelScorer(model, g, tokenizer, g.triples("test")[:, :2],
                             mode="text")
        rep, _ = evaluate(scorer, g, "test")
        table.append((name, rep.mrr, rep.hits1, rep.hits3, rep.hits10))
    ok = len(table) == 4 and all(
        np.isfinite(row[1:]).all() for row in [np.array(r[1:]) for r in table]
    )
    print("method\tMRR\tH@1\tH@3\tH@10")
    for row in table:
        print(f"{row[0]}\t{row[1]:.3f}\t{row[2]:.3f}\t{row[3]:.3f}\t{row[4]:.3f}")
    report(5, "ablation-table", ok, "(4 configurations via config flags)")


# ---------------------------------------------------------------------------
# 6. negative-sampler invariants
# ---------------------------------------------------------------------------

def test_criterion_6_negative_sampler_invariants():
    start = time.time()
    rng = np.random.default_rng(61)

    # IRNS soundness over a full toy epoch
    toy = make_text_toy(num_entities=25, num_relations=3, num_triples=40, seed=6)
    g = toy.graph
    for h, r, _ in g.triples("train").tolist():
        for t in sample_intra_relation(g, h, r, 3, rng):
            if t in g.tails_by_pair(h, r, ["train"]):
                report(6, "sampler-invariants", False,
                       f"IRNS returned train-true ({h},{r},{t})")

    # queue FIFO vs list-slicing oracle
    queue = MomentumQueue(100, 6)
    pushed = []
    for _ in range(1000):
        v = rng.normal(size=6)
        v /= np.linalg.norm(v)
        pushed.append(v)
        queue.push(v)
    if not np.array_equal(queue.features(), np.stack(pushed[-100:])):
        report(6, "sampler-invariants", False, "queue != slicing oracle")

    # hardest-k: tau invariance of the selected set + sort-oracle equality
    probe = rng.normal(size=6)
    probe /= np.linalg.norm(probe)
    feats = queue.features()
    logits = feats @ probe
    oracle_top = feats[np.argsort(-logits, kind="stable")[:8]]
    baseline = queue.hardest(probe, 0.05, 8)
    if not np.allclose(baseline, oracle_top):
        report(6, "sampler-invariants", False, "hardest-k != sort oracle")
    for tau in (0.01, 0.07, 1.0):
        other = queue.hardest(probe, tau, 8)
        if {tuple(np.round(r, 12)) for r in other} != {
            tuple(np.round(r, 12)) for r in baseline
        }:
            report(6, "sampler-invariants", False, "hardest-k set varies with tau")

    # mixed negatives unit norm
    mixed, fallback = mix_hard_negatives(baseline, 512, rng)
    norms = np.linalg.norm(mixed, axis=1)
    if fallback or np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
        report(6, "sampler-invariants", False, "mixed negatives off the sphere")

    elapsed = time.time() - start
    report(6, "sampler-invariants", elapsed < SAMPLER_BUDGET_S, f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 7. re-ranking behavior across MIOU regimes
# ---------------------------------------------------------------------------

def _rerank_world(overlap: str, rng):
    """40 entities, 1 relation; controls train/test tail-set overlap."""
    n = 40
    ents = [EntityRecord(f"e{i}", "", i) for i in range(n)]
    rels = [RelationRecord("r", "", 0)]
    train_tails = list(range(10, 20))
    test_tails = train_tails if overlap == "high" else list(range(20, 30))
    train = [Triple(h, 0, t) for h, t in zip(range(10), train_tails)]
    test = [Triple(30 + i, 0, t) for i, t in enumerate(test_tails)]
    g = KnowledgeGraph(ents, rels, {"train": train, "test": test})
    # imperfect base scores: gold at 0.75, distractors uniform
    table = {}
    for h, r, t in g.triples("test"):
        scores = rng.uniform(0.0, 1.0, size=n)
        scores[t] = 0.75
        table[(h, r)] = scores
    return g, TableScorer(table)


def test_criterion_7_rerank_miou_regimes():
    rng = np.random.default_rng(71)

    g_low, scorer_low = _rerank_world("low", rng)
    low_miou, _ = miou(g_low)
    base_low, _ = evaluate(scorer_low, g_low, "test")
    rr_low, _ = evaluate(
        scorer_low, g_low, "test",
        rerank_config=RerankConfig(alpha=0.2, splits=("train",)),
    )
    report(7, "rerank-low-overlap",
           low_miou < 0.2 and rr_low.mrr < base_low.mrr,
           f"(MIOU {low_miou:.2f}, MRR {base_low.mrr:.3f} -> {rr_low.mrr:.3f})")

    g_high, scorer_high = _rerank_world("high", rng)
    high_miou, _ = miou(g_high)
    base_high, _ = evaluate(scorer_high, g_high, "test")
    rr_high, _ = evaluate(
        scorer_high, g_high, "test",
        rerank_config=RerankConfig(alpha=0.2, splits=("train",)),
    )
    report(7, "rerank-high-overlap",
           high_miou >= 0.99 and rr_high.mrr >= base_high.mrr,
           f"(MIOU {high_miou:.2f}, MRR {base_high.mrr:.3f} -> {rr_high.mrr:.3f})")


# ---------------------------------------------------------------------------
# 8. determinism end to end
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path, capsys):
    data_dir = tmp_path / "toy"
    toy = make_text_toy(num_entities=10, num_relations=2, num_triples=16, seed=0)
    write_dataset(toy, data_dir)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"dataset = {data_dir}\n"
        "struct_dim = 8\nlayers = 1\nhidden_dim = 16\nheads = 2\nmax_len = 16\n"
        "epochs = 1\nbatch_size = 8\nlr = 1e-3\nqueue_capacity = 16\n"
        "hardest_k = 4\nmh_count = 4\nir_count = 1\n"
    )
    ckpts = []
    for name in ("a.ckpt", "b.ckpt"):
        out = tmp_path / name
        code = main(["train", "--config", str(cfg), "--seed", "11",
                     "--out", str(out)])
        assert code == 0
        ckpts.append(out.read_bytes())
    capsys.readouterr()
    same_ckpt = ckpts[0] == ckpts[1]

    outputs = []
    for _ in range(2):
        code = main(["eval", "--dataset", str(data_dir),
                     "--checkpoint", str(tmp_path / "a.ckpt"),
                     "--split", "test"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    report(8, "determinism", same_ckpt and outputs[0] == outputs[1],
           "(bit-identical checkpoints, identical reports)")
