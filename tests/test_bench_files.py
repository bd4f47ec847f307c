"""Every committed ``BENCH_*.json`` names what ``BENCHMARK.json`` declares.

A BENCH file at the repository root records one benchmark run per
workload at one seed: ``workloads`` maps each workload to the final JSON
line of ``python3 perfbench/run.py --workload <w> --seed <seed> --seconds
<seconds> --trace <trace>``, and ``env`` holds the ``env.*`` values the run
printed.  The checks are on names, units and correctness; none gates on a
time or a throughput.
"""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
ENV_KEYS = {"blas_threads", "nproc", "python", "numpy", "scipy"}


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_matches_the_declared_benchmark(path):
    declared = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    bench = load_json(path)
    assert {"seed", "seconds", "trace", "env", "workloads"} <= set(bench)
    assert ENV_KEYS <= set(bench["env"])
    assert set(bench["workloads"]) == {w["name"] for w in declared["workloads"]}
    metrics = declared["per_layer"] if bench["trace"] else declared["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    for name, line in bench["workloads"].items():
        assert line["correct"] is True, name
        assert line["failed"] == 0 and line["attempted"] >= 2, name
        assert set(line["metrics"]) == set(units), name
        for metric, entry in line["metrics"].items():
            assert entry["unit"] == units[metric], (name, metric)
            assert isinstance(entry["value"], (int, float)), (name, metric)
