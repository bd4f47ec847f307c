"""Command-line surface: vocabulary building, training, evaluation,
re-ranking sweeps, MIOU diagnostics and prediction export.

Every command is deterministic under a fixed seed.  Failures print one
machine-readable line ``error<TAB>category<TAB>detail`` to stderr and
exit non-zero (2 for usage or missing inputs, 1 for runtime errors).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .checkpoint import CheckpointError, load_model, save_checkpoint
from .config import ConfigError, RunConfig, parse_config
from .data import DataError, build_tokenizer, load_dataset
from .evaluation import SCORE_MODES, ModelScorer, RerankConfig, evaluate, miou
from .graph import SPLITS, GraphError
from .model import Model
from .text import Tokenizer
from .training import Trainer, TrainingError

REGIMES = {
    "none": None,
    "train": ("train",),
    "train-valid": ("train", "valid"),
    "train-valid-test": ("train", "valid", "test"),
}


class UsageError(ValueError):
    pass


def _require_file(path, what) -> str:
    if not path or not os.path.exists(path):
        raise UsageError(f"{what} not found: {path!r}")
    return path


def _load_run_config(args) -> RunConfig:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "dataset", None):
        overrides["dataset"] = args.dataset
    if args.config:
        _require_file(args.config, "config file")
        return parse_config(args.config, overrides)
    return RunConfig(**overrides)


def _load_scorer(args):
    _require_file(args.dataset, "dataset directory")
    dataset = load_dataset(args.dataset)
    pairs = dataset.graph.triples(args.split)[:, :2]
    if not len(pairs):
        raise UsageError(
            f"split {args.split!r} has no triples to rank; pass --split "
            f"with a split that has some"
        )
    _require_file(args.checkpoint, "checkpoint")
    model = load_model(
        args.checkpoint,
        expected_dims={
            "num_entities": dataset.graph.num_entities,
            "num_base_relations": dataset.graph.num_base_relations,
        },
    )
    tokenizer = None
    if model.config.use_text:
        vocab_path = args.vocab or args.checkpoint + ".vocab.tsv"
        _require_file(vocab_path, "vocabulary file")
        tokenizer = Tokenizer.load(vocab_path)
        if len(tokenizer) != model.config.vocab_size:
            raise UsageError(
                f"vocabulary size {len(tokenizer)} does not match the "
                f"checkpoint's {model.config.vocab_size}"
            )
    mode = args.score_mode or ("text" if model.config.use_text else "struct")
    scorer = ModelScorer(model, dataset.graph, tokenizer, pairs, mode=mode,
                         beta=args.beta)
    return dataset, model, scorer


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_build_vocab(args) -> int:
    _require_file(args.dataset, "dataset directory")
    dataset = load_dataset(args.dataset)
    tokenizer = build_tokenizer(dataset.graph, min_freq=args.min_freq)
    tokenizer.save(args.out)
    print(f"vocab\t{len(tokenizer)}\t{args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    _require_file(cfg.dataset, "dataset directory")
    dataset = load_dataset(cfg.dataset)
    graph = dataset.graph

    tokenizer = None
    vocab_size = 0
    if cfg.use_text:
        tokenizer = build_tokenizer(graph, min_freq=cfg.min_token_freq)
        vocab_size = len(tokenizer)
    model = Model(
        cfg.model_config(graph.num_entities, graph.num_base_relations, vocab_size),
        seed=cfg.seed,
    )
    trainer = Trainer(graph, model, tokenizer, cfg.train_config())
    metrics = trainer.train()

    save_checkpoint(args.out, model)
    if tokenizer is not None:
        tokenizer.save(args.out + ".vocab.tsv")
    metrics_path = args.metrics or args.out + ".metrics.tsv"
    with open(metrics_path, "w", encoding="utf-8") as f:
        f.write("epoch\tmean_loss\ttau\tlr\tqueue_fill\tirns_fallback_rate\n")
        for m in metrics:
            f.write(m.as_log_line() + "\n")
    print(f"trained\t{len(metrics)} epochs\tfinal_loss={metrics[-1].mean_loss:.6f}")
    print(f"checkpoint\t{args.out}")
    return 0


def _finite_float(raw: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return value


def _penalty(raw: str) -> float:
    """argparse type: a finite float that is not negative."""
    value = _finite_float(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {raw!r}")
    return value


def _penalties(raw: str) -> list[float]:
    """argparse type: a comma-separated list of finite non-negative floats."""
    return [_penalty(part) for part in raw.split(",") if part.strip()]


def _names(known, what: str):
    """argparse type: a comma-separated list of entries of ``known``."""
    def parse(raw: str) -> tuple[str, ...]:
        names = tuple(s.strip() for s in raw.split(",") if s.strip())
        bad = [s for s in names if s not in known]
        if bad:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {bad}; choose from {sorted(known)}")
        return names
    return parse


def _min_freq(raw: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {raw!r}")
    return value


def cmd_eval(args) -> int:
    dataset, model, scorer = _load_scorer(args)
    report, results = evaluate(
        scorer, dataset.graph, args.split, filter_splits=args.filter_splits,
        rerank_config=RerankConfig(alpha=args.alpha, splits=args.rerank_splits),
        collect_details=args.detail is not None,
    )
    for line in report.summary_lines():
        print(line)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as f:
            f.write("query\thead\trelation\tgold\trank\ttop10\n")
            for i, res in enumerate(results):
                top = ",".join(f"{e}:{s:.6f}" for e, s in res.top)
                f.write(
                    f"{i}\t{res.head}\t{res.relation}\t{res.gold}\t{res.rank}\t{top}\n"
                )
    return 0


def cmd_rerank_sweep(args) -> int:
    dataset, model, scorer = _load_scorer(args)
    print("regime\talpha\tMRR\tH@1\tH@3\tH@10")
    for regime in args.regimes:
        splits = REGIMES[regime]
        for alpha in args.alphas:
            if splits is None and alpha != 0.0:
                continue  # no knowledge source: only the unpenalized baseline
            cfg = RerankConfig(alpha=alpha, splits=splits or ("train",))
            report, _ = evaluate(scorer, dataset.graph, args.split,
                                 filter_splits=args.filter_splits, rerank_config=cfg)
            print(
                f"{regime}\t{alpha:g}\t{report.mrr:.4f}\t{report.hits1:.4f}"
                f"\t{report.hits3:.4f}\t{report.hits10:.4f}"
            )
    return 0


def cmd_miou(args) -> int:
    _require_file(args.dataset, "dataset directory")
    dataset = load_dataset(args.dataset)
    value, per_relation = miou(dataset.graph, args.split)
    print(f"MIOU\t{value:.6f}")
    for rel_id in sorted(per_relation):
        rec = dataset.graph.relations[rel_id]
        print(f"relation\t{rel_id}\t{rec.name}\t{per_relation[rel_id]:.6f}")
    return 0


def cmd_export_predictions(args) -> int:
    dataset, model, scorer = _load_scorer(args)
    _, results = evaluate(
        scorer, dataset.graph, args.split, filter_splits=args.filter_splits,
        collect_details=True, top_k=10,
    )
    graph = dataset.graph
    with open(args.out, "w", encoding="utf-8") as f:
        for res in results:
            if graph.is_inverse_relation(res.relation):
                base = res.relation - graph.num_base_relations
                rel_raw = f"inverse:{dataset.relation_raw_ids[base]}"
            else:
                rel_raw = dataset.relation_raw_ids[res.relation]
            ranked = "\t".join(dataset.entity_raw_ids[e] for e, _ in res.top)
            f.write(f"{dataset.entity_raw_ids[res.head]}\t{rel_raw}\t{ranked}\n")
    print(f"predictions\t{len(results)}\t{args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_eval_like(p, default_split):
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--split", default=default_split, choices=SPLITS)
    p.add_argument("--filter-splits", type=_names(SPLITS, "splits"),
                   default=",".join(SPLITS), dest="filter_splits")
    p.add_argument("--score-mode", choices=SCORE_MODES, default=None,
                   dest="score_mode")
    p.add_argument("--beta", type=_finite_float, default=0.5)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a :class:`UsageError`, so it prints
    the same one-line ``error<TAB>usage<TAB>detail`` as every other usage
    error.  Subparsers inherit the class."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="structkgc",
        description="Structure-augmented contrastive knowledge graph completion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build and save the tokenizer vocabulary")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-freq", type=_min_freq, default=2, dest="min_freq")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--config", default=None, help="key=value run configuration")
    p.add_argument("--dataset", default=None, help="overrides the config's dataset")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="model.ckpt")
    p.add_argument("--metrics", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="filtered-ranking evaluation of a checkpoint")
    _add_eval_like(p, "test")
    p.add_argument("--alpha", type=_penalty, default=0.0)
    p.add_argument("--rerank-splits", type=_names(SPLITS, "splits"),
                   default="train", dest="rerank_splits")
    p.add_argument("--detail", default=None,
                   help="write per-query ranks and top-10 candidates here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rerank-sweep",
                       help="grid over re-ranking penalties and knowledge regimes")
    _add_eval_like(p, "valid")
    p.add_argument("--alphas", type=_penalties, default="0,0.02,0.05,0.1,0.2,0.5")
    p.add_argument("--regimes", type=_names(REGIMES, "regimes"),
                   default="none,train,train-valid,train-valid-test")
    p.set_defaults(func=cmd_rerank_sweep)

    p = sub.add_parser("miou", help="overlap of train tail sets with a split's, per relation")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test", choices=["valid", "test"])
    p.set_defaults(func=cmd_miou)

    p = sub.add_parser("export-predictions", help="write top-10 predictions per query")
    _add_eval_like(p, "test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_predictions)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except (UsageError, FileNotFoundError) as e:
        print(f"error\tusage\t{e}", file=sys.stderr)
        return 2
    except (ConfigError, DataError, GraphError, CheckpointError) as e:
        print(f"error\tinput\t{e}", file=sys.stderr)
        return 2
    except (TrainingError, ValueError) as e:
        print(f"error\truntime\t{e}", file=sys.stderr)
        return 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
