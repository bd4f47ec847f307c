"""The benchmark workloads: set-up, one timed operation, output checks.

Each workload drives the program only through ``structkgc.cli.main`` and
the public functions of ``structkgc.negatives``, looked up on their
modules at call time so that the tracer's wrappers see every call.  All
inputs come from the workload seed; every operation of a run uses the
same inputs, so its outputs must repeat exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from dataclasses import dataclass

import numpy as np

import checks
import gen
from structkgc import cli, negatives
from structkgc.checkpoint import load_model, save_checkpoint
from structkgc.config import parse_config
from structkgc.graph import (
    EntityRecord,
    KnowledgeGraph,
    RelationRecord,
    Triple,
    inverse_relation_records,
)
from structkgc.model import Model, ModelConfig
from structkgc.text import Tokenizer


@dataclass
class Op:
    """One timed operation: its wall time and the units of work it did."""
    seconds: float
    items: int
    outputs: dict


def timed(fn, tracer, op: int):
    start = time.perf_counter()
    result = fn() if tracer is None else tracer.run_op(op, fn)
    return result, time.perf_counter() - start


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def file_digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def fallback_observer(in_relation: np.ndarray):
    """Counts intra-relation queries and the ones that fell back.

    ``in_relation`` is ``gen.relation_tail_masks`` of the train split.  A
    sample came from the fallback exactly when its tails lie outside the
    train e(r): a non-empty pool e(r) - e(h, r) is a subset of e(r), and an
    empty one means e(r) is inside e(h, r), which the fallback avoids.
    """
    def observe(args, result, counts):
        counts["ir_queries"] += 1
        if result and not in_relation[args[2], result[0]]:
            counts["ir_fallbacks"] += 1

    return observe


def base_observers() -> dict:
    def nodes(args, result, counts):
        counts["nodes"] += len(result)

    def mix(args, result, counts):
        counts["mh_fallbacks"] += int(result[1])

    return {"autodiff.toposort": nodes, "negatives.mix": mix}


# ---------------------------------------------------------------------------
# desk_train and desk_eval: `structkgc train` and `structkgc eval --score-mode
# text` on a 2,000-entity text dataset
# ---------------------------------------------------------------------------

@dataclass
class DeskScale:
    entities: int = 2000
    train: int = 128          # base triples; inverses double them
    test: int = 100
    batch_size: int = 32
    hidden_dim: int = 64
    struct_dim: int = 64
    layers: int = 2
    heads: int = 4
    max_len: int = 64
    queue_capacity: int = 256
    hardest_k: int = 32
    mh_count: int = 64
    ir_count: int = 3


DESK_R = len(gen.DESK_RELATIONS)


class DeskWorkload:
    """Shared set-up: the dataset and the run configuration `train` reads."""

    min_ops = 2  # every operation's output is compared to the first one's

    def __init__(self, seed: int, workdir: str, scale: DeskScale | None = None):
        self.seed = seed
        self.scale = scale or DeskScale()
        self.data = os.path.join(workdir, "data")
        self.config = os.path.join(workdir, "run.cfg")
        self.ckpt = os.path.join(workdir, "model.ckpt")
        self.metrics = os.path.join(workdir, "metrics.tsv")

    def write_inputs(self):
        s = self.scale
        rng = np.random.default_rng(self.seed)
        self.splits = gen.make_triples(
            rng, s.entities, DESK_R, {"train": s.train, "valid": 0, "test": s.test})
        gen.write_dataset(self.data, gen.entity_records(s.entities, rng),
                          gen.DESK_RELATIONS, self.splits)
        keys = ("batch_size", "hidden_dim", "struct_dim", "layers", "heads", "max_len",
                "queue_capacity", "hardest_k", "mh_count", "ir_count")
        lines = [f"dataset={self.data}", "epochs=1", f"seed={self.seed}"]
        lines += [f"{k}={getattr(s, k)}" for k in keys]
        with open(self.config, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    def stats(self) -> dict:
        return gen.input_stats(self.splits, self.scale.entities, DESK_R)

    def prepare(self):
        self.first = None

    def same_as_first(self, output, what: str) -> list[str]:
        if self.first is None:
            self.first = output
        return [] if output == self.first else [f"same-seed {what} differs from the first run's"]


class DeskTrain(DeskWorkload):
    """One epoch of `structkgc train`, up to the written checkpoint."""

    def setup(self):
        self.write_inputs()

    def observers(self) -> dict:
        train_full = gen.with_inverses(self.splits["train"], DESK_R)
        obs = base_observers()
        obs["negatives.intra_relation"] = fallback_observer(
            gen.relation_tail_masks(train_full, self.scale.entities, DESK_R))
        return obs

    def run(self, i: int, tracer=None) -> Op:
        argv = ["train", "--config", self.config, "--out", self.ckpt,
                "--metrics", self.metrics]
        (rc, _), seconds = timed(lambda: run_cli(argv), tracer, i)
        digests = (file_digest(self.ckpt), file_digest(self.metrics)) if rc == 0 else None
        return Op(seconds, 2 * self.scale.train, {"rc": rc, "digests": digests})

    def check(self, i: int, op: Op) -> list[str]:
        if op.outputs["rc"] != 0:
            return [f"train exited {op.outputs['rc']}"]
        return self.same_as_first(op.outputs["digests"], "checkpoint or metrics.tsv")


class DeskEval(DeskWorkload):
    """`structkgc eval --score-mode text` on test with a text checkpoint.

    Set-up writes the vocabulary with `structkgc build-vocab` and an
    untrained model of the run configuration's dimensions, so the ranking
    work is that of a trained one.
    """

    def setup(self):
        self.write_inputs()
        vocab = self.ckpt + ".vocab.tsv"
        rc, _ = run_cli(["build-vocab", "--dataset", self.data, "--out", vocab])
        if rc != 0:
            raise RuntimeError(f"build-vocab exited {rc}")
        cfg = parse_config(self.config)
        model = Model(cfg.model_config(self.scale.entities, DESK_R,
                                       len(Tokenizer.load(vocab))), seed=self.seed)
        save_checkpoint(self.ckpt, model)

    def observers(self) -> dict:
        return base_observers()

    def run(self, i: int, tracer=None) -> Op:
        argv = ["eval", "--dataset", self.data, "--checkpoint", self.ckpt,
                "--score-mode", "text"]
        (rc, out), seconds = timed(lambda: run_cli(argv), tracer, i)
        return Op(seconds, 2 * self.scale.test, {"rc": rc, "out": out})

    def check(self, i: int, op: Op) -> list[str]:
        rc, out = op.outputs["rc"], op.outputs["out"]
        if rc != 0:
            return [f"eval exited {rc}"]
        errors = self.same_as_first(out, "eval report")
        if f"queries\t{2 * self.scale.test}\n" not in out:
            errors.append(f"eval did not report {2 * self.scale.test} queries")
        return errors


# ---------------------------------------------------------------------------
# eval_wide: `structkgc eval --score-mode struct` over a WN18RR-sized graph
# ---------------------------------------------------------------------------

WIDE_R = len(gen.WIDE_RELATIONS)
WIDE_ALPHA = 0.1  # --alpha, the re-ranking penalty outside train e(r)


@dataclass
class WideScale:
    entities: int = 40943
    train: int = 86835
    valid: int = 3034
    test: int = 100           # 200 queries with the inverses
    struct_dim: int = 64


class EvalWide:
    min_ops = 2

    def __init__(self, seed: int, workdir: str, scale: WideScale | None = None):
        self.seed = seed
        self.scale = scale or WideScale()
        self.data = os.path.join(workdir, "data")
        self.ckpt = os.path.join(workdir, "struct.ckpt")
        self.detail = os.path.join(workdir, "detail.tsv")

    def setup(self):
        s = self.scale
        rng = np.random.default_rng(self.seed)
        self.splits = gen.make_triples(
            rng, s.entities, WIDE_R, {"train": s.train, "valid": s.valid, "test": s.test})
        gen.write_dataset(self.data, gen.entity_records(s.entities, None),
                          gen.WIDE_RELATIONS, self.splits)
        model = Model(ModelConfig(num_entities=s.entities, num_base_relations=WIDE_R,
                                  struct_dim=s.struct_dim, use_text=False),
                      seed=self.seed)
        save_checkpoint(self.ckpt, model)

    def stats(self) -> dict:
        return gen.input_stats(self.splits, self.scale.entities, WIDE_R)

    def observers(self) -> dict:
        return base_observers()

    def prepare(self):
        self.expected = checks.expected_detail(
            load_model(self.ckpt), self.splits, self.scale.entities, WIDE_R, WIDE_ALPHA)

    def run(self, i: int, tracer=None) -> Op:
        argv = ["eval", "--dataset", self.data, "--checkpoint", self.ckpt,
                "--score-mode", "struct", "--alpha", str(WIDE_ALPHA),
                "--detail", self.detail]
        (rc, out), seconds = timed(lambda: run_cli(argv), tracer, i)
        detail = None
        if rc == 0:
            with open(self.detail, encoding="utf-8") as f:
                detail = f.read()
        return Op(seconds, len(self.expected), {"rc": rc, "detail": detail})

    def check(self, i: int, op: Op) -> list[str]:
        if op.outputs["rc"] != 0:
            return [f"eval exited {op.outputs['rc']}"]
        return checks.check_detail(op.outputs["detail"], self.expected)


# ---------------------------------------------------------------------------
# sampler_full: one paper-scale negative-sampling step
# ---------------------------------------------------------------------------

TAU = 0.05      # the paper's initial temperature, scaling the hardest logits
IR_COUNT = 3    # intra-relation negatives per query


@dataclass
class SamplerScale:
    entities: int = 40943
    train: int = 86835
    valid: int = 3034
    test: int = 3134
    queue_capacity: int = 15360
    dim: int = 64
    batch_size: int = 768
    hardest_k: int = 192
    mh_count: int = 64


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    x = rng.normal(size=(n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class SamplerFull:
    min_ops = 2

    def __init__(self, seed: int, workdir: str, scale: SamplerScale | None = None):
        self.seed = seed
        self.scale = scale or SamplerScale()

    def setup(self):
        s = self.scale
        self.graph = self.queue = None  # free the previous set-up first
        rng = np.random.default_rng(self.seed)
        self.splits = gen.make_triples(
            rng, s.entities, WIDE_R, {"train": s.train, "valid": s.valid, "test": s.test})
        base = [RelationRecord(n, "", j) for j, n in enumerate(gen.WIDE_RELATIONS)]
        self.graph = KnowledgeGraph(
            [EntityRecord(f"entity {i}", "", i) for i in range(s.entities)],
            base + inverse_relation_records(base),
            {split: [Triple(*t) for t in gen.with_inverses(a, WIDE_R).tolist()]
             for split, a in self.splits.items()},
            num_base_relations=WIDE_R,
        )
        self.queue = negatives.MomentumQueue(s.queue_capacity, s.dim)
        for _ in range(-(-s.queue_capacity // s.batch_size)):
            self.queue.push(unit_rows(rng, s.batch_size, s.dim))

    def stats(self) -> dict:
        return gen.input_stats(self.splits, self.scale.entities, WIDE_R)

    def observers(self) -> dict:
        obs = base_observers()
        obs["negatives.intra_relation"] = fallback_observer(self.in_relation)
        return obs

    def prepare(self):
        self.train_full = gen.with_inverses(self.splits["train"], WIDE_R)
        self.train_index = gen.TailIndex(self.train_full, WIDE_R)
        self.in_relation = gen.relation_tail_masks(self.train_full, self.scale.entities, WIDE_R)

    def run(self, i: int, tracer=None) -> Op:
        s = self.scale
        rng = np.random.default_rng([self.seed, i])
        batch = self.train_full[rng.integers(len(self.train_full), size=s.batch_size)]
        queries = unit_rows(rng, s.batch_size, s.dim)
        fresh = unit_rows(rng, s.batch_size, s.dim)
        before = self.queue.features()

        def step():
            hardest, mixed = [], []
            for q in queries:
                rows = self.queue.hardest(q, TAU, s.hardest_k)
                hardest.append(rows)
                mixed.append(negatives.mix_hard_negatives(rows, s.mh_count, rng)[0])
            intra = [negatives.sample_intra_relation(self.graph, h, r, IR_COUNT, rng)
                     for h, r, _ in batch.tolist()]
            mask = negatives.in_batch_mask([(h, r) for h, r, _ in batch.tolist()],
                                           batch[:, 2].tolist(), self.graph)
            self.queue.push(fresh)
            return hardest, mixed, intra, mask

        (hardest, mixed, intra, mask), seconds = timed(step, tracer, i)
        outputs = {"batch": batch, "queries": queries, "fresh": fresh, "before": before,
                   "hardest": hardest, "mixed": mixed, "intra": intra, "mask": mask,
                   "after": self.queue.features()}
        return Op(seconds, s.batch_size, outputs)

    def check(self, i: int, op: Op) -> list[str]:
        s, out = self.scale, op.outputs
        errors = []
        positions = checks.row_positions(out["before"])
        for q in range(s.batch_size):
            h, r, _ = out["batch"][q].tolist()
            errors += checks.check_hardest(out["before"], positions, out["queries"][q],
                                           TAU, s.hardest_k, out["hardest"][q])
            errors += checks.check_mixed(out["mixed"][q], s.mh_count, s.dim)
            pool = checks.intra_pool(self.in_relation[r], self.train_index.tails_of(h, r))
            errors += checks.check_intra(out["intra"][q], pool, IR_COUNT)
        errors += checks.check_mask(out["mask"], out["batch"], self.train_index)
        if not np.array_equal(out["after"][-s.batch_size:], out["fresh"]):
            errors.append("the queue does not end with the pushed features")
        return checks.first_errors(errors)


WORKLOADS = {
    "desk_train": DeskTrain,
    "desk_eval": DeskEval,
    "eval_wide": EvalWide,
    "sampler_full": SamplerFull,
}
