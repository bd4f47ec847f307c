"""Command-line surface: vocabulary building, training, evaluation,
re-ranking sweeps, MIOU diagnostics and prediction export.

Every command is deterministic under a fixed seed.  Failures print one
machine-readable line ``error<TAB>category<TAB>detail`` to stderr and
exit non-zero (2 for usage errors, missing inputs and paths the OS
refuses to read or write, 1 for runtime errors).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .checkpoint import CheckpointError, load_model, save_checkpoint
from .config import ConfigError, RunConfig, parse_config
from .data import (ENTITY_FILE, RELATION_FILE, SPLIT_FILES, DataError, build_tokenizer,
                   load_dataset)
from .evaluation import SCORE_MODES, ModelScorer, RerankConfig, evaluate, miou, missing_path
from .graph import SPLITS, GraphError
from .model import Model
from .text import MIN_TOKEN_FREQ, Tokenizer
from .training import EpochMetrics, Trainer, TrainingError

REGIMES = {
    "none": None,
    "train": ("train",),
    "train-valid": ("train", "valid"),
    "train-valid-test": ("train", "valid", "test"),
}


class UsageError(ValueError):
    pass


DATASET = "dataset directory"
# every file ``load_dataset`` may read from a dataset directory
DATASET_FILES = (ENTITY_FILE, RELATION_FILE, *SPLIT_FILES.values())


def _check_paths(reads: dict[str, str | None], writes: dict[str, str | None]) -> None:
    """Refuse, before any input is parsed, a command's paths that cannot
    work.  ``reads`` and ``writes`` map what each path is to the path
    (``None`` is skipped).  An output must not be empty or a directory,
    and must sit in a directory that exists.  An input must exist, and
    only the ``DATASET`` may be a directory.  No two paths may resolve to
    one file, where the dataset directory stands for all of
    ``DATASET_FILES``, present or not: an output would land on an input
    or another output."""
    seen: dict[str, str] = {}
    for what, path in {**writes, **reads}.items():
        if path is None:
            continue
        if what in writes:
            if not path:
                raise UsageError("output path '' is empty")
            if os.path.isdir(path):
                raise UsageError(f"output path {path!r} is a directory")
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise UsageError(f"output path {path!r} is in a directory that does not exist")
        for label, file in ([("dataset file", os.path.join(path, name)) for name in DATASET_FILES]
                            if what == DATASET else [(what, path)]):
            real = os.path.realpath(file)
            if real in seen:
                raise UsageError(f"{seen[real]} and {label} {file!r} name the same file")
            seen[real] = f"{label} {file!r}"
        if what in reads and not os.path.exists(path):
            raise UsageError(f"{what} not found: {path!r}")
        if what in reads and what != DATASET and os.path.isdir(path):
            raise UsageError(f"{what} {path!r} is a directory")


def _load_run_config(args) -> RunConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.dataset is not None:
        overrides["dataset"] = args.dataset
    if args.config is not None:
        return parse_config(args.config, overrides)
    return RunConfig(**overrides)


def _split_triples(graph, split: str, what: str):
    """The split's triples; a usage error naming the split if it has none."""
    triples = graph.triples(split)
    if not len(triples):
        raise UsageError(
            f"split {split!r} has no triples to {what}; pass --split "
            f"with a split that has some"
        )
    return triples


def _load_scorer(args, outputs: dict[str, str | None]):
    """The dataset and scorer of an eval-like command, once its paths and
    ``outputs`` (what each is, to its path) pass ``_check_paths``.  The
    default vocabulary ``<checkpoint>.vocab.tsv`` is read only for a text
    checkpoint, so it is one of the paths only if it is a file.  The
    checkpoint must have the paths ``--score-mode`` needs."""
    default_vocab = args.checkpoint + ".vocab.tsv"
    _check_paths({DATASET: args.dataset, "--checkpoint": args.checkpoint, "--vocab": args.vocab,
                  "vocabulary": default_vocab if args.vocab is None
                  and os.path.isfile(default_vocab) else None}, outputs)
    dataset = load_dataset(args.dataset)
    pairs = _split_triples(dataset.graph, args.split, "rank")[:, :2]
    model = load_model(
        args.checkpoint,
        expected_dims={
            "num_entities": dataset.graph.num_entities,
            "num_base_relations": dataset.graph.num_base_relations,
        },
    )
    mode = args.score_mode or ("text" if model.config.use_text else "struct")
    lacking = missing_path(model.config, mode)
    if lacking is not None:
        raise UsageError(f"--score-mode {mode} needs the {lacking} path, which checkpoint "
                         f"{args.checkpoint!r} was trained without")
    tokenizer = None
    if model.config.use_text:
        tokenizer = Tokenizer.load(default_vocab if args.vocab is None else args.vocab)
        if len(tokenizer) != model.config.vocab_size:
            raise UsageError(
                f"vocabulary size {len(tokenizer)} does not match the "
                f"checkpoint's {model.config.vocab_size}"
            )
    return dataset, ModelScorer(model, dataset.graph, tokenizer, pairs, mode=mode,
                                beta=args.beta)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_build_vocab(args) -> int:
    _check_paths({DATASET: args.dataset}, {"--out": args.out})
    dataset = load_dataset(args.dataset)
    tokenizer = build_tokenizer(dataset.graph, min_freq=args.min_freq)
    tokenizer.save(args.out)
    print(f"vocab\t{len(tokenizer)}\t{args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    metrics_path = args.out + ".metrics.tsv" if args.metrics is None else args.metrics
    vocab_path = args.out + ".vocab.tsv" if cfg.use_text else None
    _check_paths({"--config": args.config, DATASET: cfg.dataset},
                 {"--out": args.out, "vocabulary": vocab_path,
                  "--metrics" if args.metrics is not None else "metrics file": metrics_path})
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
        tokenizer.save(vocab_path)
    with open(metrics_path, "w", encoding="utf-8") as f:
        f.write(EpochMetrics.HEADER + "\n")
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
    """argparse type: a non-empty comma-separated list of finite
    non-negative floats."""
    values = [_penalty(part) for part in raw.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected one or more non-negative numbers, got {raw!r}")
    return values


def _names(known, what: str, empty_ok: bool = False):
    """argparse type: a comma-separated list of entries of ``known``, which
    may be empty only if ``empty_ok``."""
    def parse(raw: str) -> tuple[str, ...]:
        names = tuple(s.strip() for s in raw.split(",") if s.strip())
        bad = [s for s in names if s not in known]
        if bad:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {bad}; choose from {sorted(known)}")
        if not names and not empty_ok:
            raise argparse.ArgumentTypeError(
                f"expected one or more {what} from {sorted(known)}, got {raw!r}")
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
    dataset, scorer = _load_scorer(args, {"--detail": args.detail})
    report, results = evaluate(
        scorer, dataset.graph, args.split, filter_splits=args.filter_splits,
        rerank_config=RerankConfig(alpha=args.alpha, splits=args.rerank_splits),
        top_k=None if args.detail is None else 10,
    )
    for line in report.summary_lines():
        print(line)
    if args.detail is not None:
        with open(args.detail, "w", encoding="utf-8") as f:
            f.write("query\thead\trelation\tgold\trank\ttop10\n")
            for i, res in enumerate(results):
                top = ",".join(f"{e}:{s:.6f}" for e, s in res.top)
                f.write(
                    f"{i}\t{res.head}\t{res.relation}\t{res.gold}\t{res.rank}\t{top}\n"
                )
    return 0


def cmd_rerank_sweep(args) -> int:
    # regime "none" has no knowledge source: only the unpenalized baseline
    grid = [(regime, alpha) for regime in args.regimes for alpha in args.alphas
            if REGIMES[regime] is not None or alpha == 0.0]
    if not grid:
        raise UsageError(f"--regimes none runs only alpha 0, which --alphas "
                         f"{','.join(f'{a:g}' for a in args.alphas)} leaves out: no rows to sweep")
    dataset, scorer = _load_scorer(args, {})
    print("regime\talpha\tMRR\tH@1\tH@3\tH@10")
    for regime, alpha in grid:
        cfg = RerankConfig(alpha=alpha, splits=REGIMES[regime] or ("train",))
        report, _ = evaluate(scorer, dataset.graph, args.split,
                             filter_splits=args.filter_splits, rerank_config=cfg)
        print(
            f"{regime}\t{alpha:g}\t{report.mrr:.4f}\t{report.hits1:.4f}"
            f"\t{report.hits3:.4f}\t{report.hits10:.4f}"
        )
    return 0


def cmd_miou(args) -> int:
    _check_paths({DATASET: args.dataset}, {})
    dataset = load_dataset(args.dataset)
    _split_triples(dataset.graph, args.split, "compare")
    value, per_relation = miou(dataset.graph, args.split)
    print(f"MIOU\t{value:.6f}")
    for rel_id in sorted(per_relation):
        rec = dataset.graph.relations[rel_id]
        print(f"relation\t{rel_id}\t{rec.name}\t{per_relation[rel_id]:.6f}")
    return 0


def cmd_export_predictions(args) -> int:
    dataset, scorer = _load_scorer(args, {"--out": args.out})
    _, results = evaluate(
        scorer, dataset.graph, args.split, filter_splits=args.filter_splits,
        top_k=10,
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
    p.add_argument("--filter-splits", type=_names(SPLITS, "splits", empty_ok=True),
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
    p.add_argument("--min-freq", type=_min_freq, default=MIN_TOKEN_FREQ, dest="min_freq")
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
    except (UsageError, OSError) as e:
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
