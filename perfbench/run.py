"""Benchmark entry point: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload eval_wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run sets up its inputs several times (``setup_s`` is the
median), then runs operations back to back, one client and one process,
until ``--seconds`` have passed and at least the workload's minimum count
has run.  Every operation's output is checked.  With ``--trace 1`` every
other operation runs under the tracer and the per-layer metrics are
reported instead of the end-to-end ones.  Report lines go first; the
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"
SETUP_REPEATS = 3       # at least; cheap set-ups repeat for SETUP_SECONDS
SETUP_SECONDS = 1.0


def environment() -> dict:
    from importlib import metadata

    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, scale=None, spans_path: str | None = None) -> dict:
    """Set up, run and check one workload; return the report as a dict."""
    from tracing import Tracer, layer_metrics

    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir, scale)
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    workload.prepare()
    tracer = Tracer(workload.observers()) if trace else None

    ops, traced, errors = [], [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < workload.min_ops or time.perf_counter() < deadline:
        under_trace = trace and i % 2 == 1
        gc.collect()  # start every operation without the last one's garbage
        try:
            if under_trace:
                tracer.install()
            try:
                op = workload.run(i, tracer if under_trace else None)
            finally:
                if under_trace:
                    tracer.uninstall()
            op_errors = workload.check(i, op)
        except Exception:  # an operation that raises is a failed operation
            op, op_errors = None, [traceback.format_exc(limit=3)]
        if op is not None:
            op.outputs = None  # checked; free it before the next operation
        if op_errors:
            failed += 1
            errors += [f"op {i}: {e}" for e in op_errors]
        elif op is not None:
            (traced if under_trace else ops).append(op)
        i += 1

    report = {
        "workload": name, "seed": seed, "trace": int(trace),
        "ops_attempted": i, "ops_failed": failed, "errors": errors,
        "environment": environment(), "inputs": workload.stats(),
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_seconds": [op.seconds for op in ops],
        "traced_op_seconds": [op.seconds for op in traced],
    }
    if ops:
        report["throughput_per_s"] = median([op.items / op.seconds for op in ops])
    if trace and traced and ops:
        report["layers"] = layer_metrics(tracer)
        report["trace_missing"] = tracer.missing
        report["layers"]["trace.overhead_s"] = (
            median(report["traced_op_seconds"]) - median(report["op_seconds"]))
        if spans_path:
            tracer.write(spans_path)
    return report


THROUGHPUT_NAMES = {
    "desk_train": ("train_triples_per_s", "training triples (inverses included) per second of `train`"),
    "desk_eval": ("eval_queries_per_s", "ranked queries per second of text-mode `eval`"),
    "eval_wide": ("eval_queries_per_s", "ranked queries per second of struct-mode `eval`"),
    "sampler_full": ("sampler_queries_per_s", "batch queries per second through one sampling step"),
}


def result_line(report: dict, declared: dict) -> dict:
    """The contract line: declared end-to-end or per-layer metrics only."""
    source = report.get("layers", {}) if report["trace"] else report
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in source}
    attempted, failed = report["ops_attempted"], report["ops_failed"]
    correct = failed == 0 and len(metrics) == len(declared)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_report(report: dict, bench: dict):
    print(f"workload\t{report['workload']}\tseed={report['seed']}\ttrace={report['trace']}")
    for key, value in report["environment"].items():
        print(f"env.{key}\t{value}")
    for key, value in report["inputs"].items():
        print(f"inputs.{key}\t{value}")
    print(f"ops_attempted\t{report['ops_attempted']}")
    print(f"ops_failed\t{report['ops_failed']}")
    for key in ("op_seconds", "traced_op_seconds"):
        print(f"{key}\t" + " ".join(f"{s:.4f}" for s in report[key]))
    for error in report["errors"]:
        print(f"error\t{error}")
    for target in report.get("trace_missing", []):
        print(f"trace_missing\t{target}")
    if "throughput_per_s" in report:
        name, what = THROUGHPUT_NAMES[report["workload"]]
        print(f"{name}\t{report['throughput_per_s']:.6g}\t1/s\t{what}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for key in ("setup_s", "peak_rss_mb"):
        if key in report:
            print(f"{key}\t{report[key]:.6g}\t{units[key]}")
    for key, value in sorted(report.get("layers", {}).items()):
        print(f"{key}\t{value:.6g}\t{units.get(key, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(THROUGHPUT_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "structkgc", "__init__.py")):
        print(f"error: no structkgc sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy loads, same on every commit
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    spans = None
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              workdir, spans_path=spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(report, bench)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    print(json.dumps(result_line(report, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
