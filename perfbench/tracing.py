"""Spans recorded from outside the program, by wrapping its entry points.

Each target is patched on the name its caller looks up: ``cli`` imports
``load_dataset`` into its own namespace, ``training`` imports the
samplers and losses into its own, and methods are looked up on their
class.  A span records (name, start, end, parent span, operation); spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, module, attribute path) -- one span name may cover several
# lookup sites of the same function.
TARGETS = (
    ("data.load_dataset", "structkgc.cli", "load_dataset"),
    ("data.build_tokenizer", "structkgc.cli", "build_tokenizer"),
    ("checkpoint.save", "structkgc.cli", "save_checkpoint"),
    ("checkpoint.load", "structkgc.cli", "load_model"),
    ("training.step", "structkgc.training", "Trainer._step"),
    ("autodiff.backward", "structkgc.autodiff", "backward"),
    ("autodiff.toposort", "structkgc.autodiff", "_toposort"),
    ("text.encode", "structkgc.text", "TextEncoder.encode"),
    ("structural.project", "structkgc.structural", "PrefixProjector.project"),
    ("model.encode_queries", "structkgc.model", "Model.encode_queries"),
    ("model.encode_tails", "structkgc.model", "Model.encode_tails"),
    ("model.struct_score_matrix", "structkgc.model", "Model.struct_score_matrix"),
    ("model.struct_scores_all_tails", "structkgc.model", "Model.struct_scores_all_tails"),
    ("losses.contrastive", "structkgc.training", "contrastive_loss"),
    ("losses.structural", "structkgc.training", "structural_loss"),
    ("optim.step", "structkgc.optim", "AdamW.step"),
    ("negatives.ema_update", "structkgc.negatives", "MomentumEncoder.ema_update"),
    ("negatives.momentum_encode", "structkgc.negatives", "MomentumEncoder.encode_tails"),
    ("negatives.hardest", "structkgc.negatives", "MomentumQueue.hardest"),
    ("negatives.push", "structkgc.negatives", "MomentumQueue.push"),
    ("negatives.mix", "structkgc.training", "mix_hard_negatives"),
    ("negatives.mix", "structkgc.negatives", "mix_hard_negatives"),
    ("negatives.intra_relation", "structkgc.training", "sample_intra_relation"),
    ("negatives.intra_relation", "structkgc.negatives", "sample_intra_relation"),
    ("negatives.in_batch_mask", "structkgc.training", "in_batch_mask"),
    ("negatives.in_batch_mask", "structkgc.negatives", "in_batch_mask"),
    ("evaluation.scorer_build", "structkgc.evaluation", "ModelScorer.__init__"),
    ("evaluation.evaluate", "structkgc.cli", "evaluate"),
    ("evaluation.scores", "structkgc.evaluation", "ModelScorer.scores"),
    ("evaluation.filtered_rank", "structkgc.evaluation", "filtered_rank"),
    ("evaluation.rerank", "structkgc.evaluation", "rerank"),
    ("graph.lookup", "structkgc.graph", "KnowledgeGraph.tails_by_pair"),
    ("graph.lookup", "structkgc.graph", "KnowledgeGraph.tails_by_relation"),
)

LAYERS = ("data", "checkpoint", "training", "autodiff", "text", "structural",
          "model", "losses", "optim", "negatives", "evaluation", "graph")

ROOT = "bench.op"


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        obj = getattr(obj, name)
    return obj, attr


class Tracer:
    """In-memory span recorder; ``install`` patches every target."""

    def __init__(self, observers=None):
        self.spans: list[tuple] = []     # (name, start, end, parent, op)
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.missing: list[str] = []
        # span name -> f(args, result, counter), for counts at a boundary
        self.observers = observers or {}

    def wrap(self, name: str, fn):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(args, result, self.counts[self.op])
            return result

        return traced

    def install(self):
        """Patch every target; a target the program no longer has is listed
        in ``missing`` and its metrics stay 0."""
        self.missing = []
        for name, module, path in TARGETS:
            try:
                owner, attr = _owner(module, path)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.missing.append(f"{module}.{path}")
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def run_op(self, op: int, fn):
        """Run ``fn`` as operation ``op`` under a root span; return its result."""
        self.op = op
        try:
            return self.wrap(ROOT, fn)()
        finally:
            self.op = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "start": start,
                                    "end": end, "parent": parent, "op": op}) + "\n")

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers, each a median over the traced operations.

    Function metrics (``<span>_s``) are inclusive seconds per operation;
    ``layer.<module>.self_s`` is the module's self time per operation;
    ``training.step_*`` are per step.
    """
    own = tracer.self_times()
    ops = sorted({s[4] for s in tracer.spans if s[4] is not None})
    per_op = {op: defaultdict(float) for op in ops}
    calls = {op: Counter() for op in ops}
    steps, step_self = [], []
    for sid, (name, start, end, _, op) in enumerate(tracer.spans):
        if op is None:
            continue
        per_op[op][name] += end - start
        per_op[op][name + ":self"] += own[sid]
        per_op[op]["self:" + name.split(".")[0]] += own[sid]
        calls[op][name] += 1
        if name == "training.step":
            steps.append(end - start)
            step_self.append(own[sid])

    def med(fn):
        return _median([fn(op) for op in ops])

    out = {}
    for name in sorted({t[0] for t in TARGETS} - {"autodiff.toposort"}):
        out[name + "_s"] = med(lambda op: per_op[op][name])
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = med(lambda op: per_op[op]["self:" + layer])
    out["training.step_p50_s"] = float(np.percentile(steps, 50)) if steps else 0.0
    out["training.step_p90_s"] = float(np.percentile(steps, 90)) if steps else 0.0
    out["training.step_self_s"] = _median(step_self)
    out["evaluation.evaluate_self_s"] = med(lambda op: per_op[op]["evaluation.evaluate:self"])
    out["autodiff.nodes_per_step"] = med(
        lambda op: tracer.counts[op]["nodes"] / max(1, calls[op]["autodiff.backward"])
    )
    out["text.sequences"] = med(lambda op: calls[op]["text.encode"])
    out["graph.lookup_calls"] = med(lambda op: calls[op]["graph.lookup"])
    out["negatives.ir_queries"] = med(lambda op: tracer.counts[op]["ir_queries"])
    out["negatives.ir_fallback_ratio"] = med(
        lambda op: tracer.counts[op]["ir_fallbacks"] / max(1, tracer.counts[op]["ir_queries"])
    )
    out["negatives.mh_fallbacks"] = med(lambda op: tracer.counts[op]["mh_fallbacks"])
    out["trace.uncovered_share"] = med(
        lambda op: per_op[op]["self:bench"] / per_op[op][ROOT]
    )
    return out
