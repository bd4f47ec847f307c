"""Smoke and negative tests of the benchmark itself, at tiny scale.

No test here gates on wall time.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from structkgc import negatives  # noqa: E402

TINY_DESK = workloads.DeskScale(
    entities=60, train=40, test=8, batch_size=8, hidden_dim=16, struct_dim=16, max_len=16,
    layers=1, heads=2, queue_capacity=16, hardest_k=4, mh_count=4, ir_count=2)
TINY = {
    "desk_train": TINY_DESK,
    "desk_eval": TINY_DESK,
    "eval_wide": workloads.WideScale(
        entities=400, train=1500, valid=60, test=10, struct_dim=16),
    "sampler_full": workloads.SamplerScale(
        entities=400, train=1500, valid=60, test=60, queue_capacity=64, dim=8,
        batch_size=16, hardest_k=8, mh_count=4),
}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCHMARK = json.load(f)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_prints_every_declared_metric(name, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    report = run.run_workload(name, 3, 0.0, bool(trace), str(tmp_path), TINY[name],
                              spans_path=str(spans))
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    line = json.loads(json.dumps(run.result_line(report, declared)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, report["errors"]
    assert line["failed"] == 0 and line["attempted"] >= 2
    assert {m: v["unit"] for m, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    assert spans.exists() == bool(trace)
    if trace:
        first = json.loads(spans.read_text().splitlines()[0])
        assert set(first) == {"id", "name", "start", "end", "parent", "op"}


def test_tracer_skips_a_target_the_program_lacks(monkeypatch):
    from structkgc import evaluation

    original = evaluation.rerank
    monkeypatch.setattr(tracing, "TARGETS", (
        ("evaluation.rerank", "structkgc.evaluation", "rerank"),
        ("gone.fn", "structkgc.evaluation", "no_such_function"),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert evaluation.rerank is not original
        tracer.run_op(0, lambda: evaluation.rerank(np.zeros(3), [1], 0.5))
    finally:
        tracer.uninstall()
    assert evaluation.rerank is original
    assert tracer.missing == ["structkgc.evaluation.no_such_function"]
    assert [s[0] for s in tracer.spans] == ["bench.op", "evaluation.rerank"]


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


def test_detail_check_catches_a_rank_off_by_one(tmp_path):
    wl = workloads.EvalWide(5, str(tmp_path), TINY["eval_wide"])
    wl.setup()
    wl.prepare()
    op = wl.run(0)
    assert wl.check(0, op) == []
    header, first, *rest = op.outputs["detail"].split("\n")
    cols = first.split("\t")
    cols[4] = str(int(cols[4]) + 1)
    planted = "\n".join([header, "\t".join(cols), *rest])
    assert checks.check_detail(planted, wl.expected)


def test_intra_check_catches_a_dropped_tail_and_a_needless_fallback(tmp_path):
    wl = workloads.SamplerFull(6, str(tmp_path), TINY["sampler_full"])
    wl.setup()
    wl.prepare()
    full = wl.in_relation.sum(axis=1)
    h, r, _ = next(q for q in wl.train_full.tolist()
                   if full[q[1]] - len(wl.train_index.tails_of(q[0], q[1])) > 2)
    true_tails = wl.train_index.tails_of(h, r)
    pool = checks.intra_pool(wl.in_relation[r], true_tails)
    assert pool.any() and not (pool & ~wl.in_relation[r]).any()
    tails = negatives.sample_intra_relation(wl.graph, h, r, 3, np.random.default_rng(0))
    assert checks.check_intra(tails, pool, 3) == []
    assert checks.check_intra(tails[:2], pool, 3)
    fallback_draw = int(np.flatnonzero(~wl.in_relation[r])[0])  # outside e(r) and e(h, r)
    assert checks.check_intra(tails[:2] + [fallback_draw], pool, 3)


def test_intra_pool_falls_back_to_every_entity_outside_the_true_tails():
    relation_tails = np.array([False, True, True, False, False])
    pool = checks.intra_pool(relation_tails, np.array([1, 2]))
    assert pool.tolist() == [True, False, False, True, True]
    assert checks.check_intra([0, 3, 4], pool, 5) == []
    assert checks.check_intra([0, 3], pool, 5)


def _queue(seed=0, n=40, dim=6):
    queue = negatives.MomentumQueue(n, dim)
    queue.push(workloads.unit_rows(np.random.default_rng(seed), n, dim))
    return queue


def test_hardest_check_catches_rows_out_of_order():
    queue = _queue()
    query = workloads.unit_rows(np.random.default_rng(1), 1, 6)[0]
    rows = queue.features()
    positions = checks.row_positions(rows)
    hardest = queue.hardest(query, 0.05, 8)
    assert checks.check_hardest(rows, positions, query, 0.05, 8, hardest) == []
    swapped = hardest[[1, 0, *range(2, 8)]]
    assert checks.check_hardest(rows, positions, query, 0.05, 8, swapped)
    skipped = np.concatenate([hardest[:7], queue.hardest(query, 0.05, 9)[8:]])
    assert checks.check_hardest(rows, positions, query, 0.05, 8, skipped)


def test_hardest_check_prefers_the_more_recent_of_equal_logits():
    queue = negatives.MomentumQueue(4, 2)
    queue.push(np.array([[1.0, 0.0], [0.6, 0.8], [-0.6, 0.8], [-1.0, 0.0]]))
    rows = queue.features()
    query = np.array([0.0, 1.0])
    positions = checks.row_positions(rows)
    assert checks.check_hardest(rows, positions, query, 1.0, 1, rows[[2]]) == []
    assert checks.check_hardest(rows, positions, query, 1.0, 1, rows[[1]])


def test_mixed_check_catches_a_non_unit_row():
    hardest = _queue().hardest(np.ones(6) / np.sqrt(6), 0.05, 8)
    mixed, fallback = negatives.mix_hard_negatives(hardest, 5, np.random.default_rng(2))
    assert not fallback
    assert checks.check_mixed(mixed, 5, 6) == []
    mixed[3] *= 1.01
    assert checks.check_mixed(mixed, 5, 6)


def test_generator_is_seeded_and_refuses_unreachable_counts():
    a = gen.make_triples(np.random.default_rng(4), 50, 3, {"train": 200, "test": 10})
    b = gen.make_triples(np.random.default_rng(4), 50, 3, {"train": 200, "test": 10})
    assert all(np.array_equal(a[s], b[s]) for s in gen.SPLITS)
    full = np.concatenate([a[s] for s in gen.SPLITS])
    assert len(np.unique(full, axis=0)) == 210
    with pytest.raises(ValueError, match="distinct triples"):
        gen.make_triples(np.random.default_rng(0), 3, 1, {"train": 5})


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
