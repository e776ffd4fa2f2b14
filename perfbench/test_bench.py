"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_bench.py
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("calls", "explored", "yielded", "dp_space", "found_ratio", "hit_ratio")


def bench(workload, trace, cwd=ROOT, seed=3):
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
                        "--tiny"], cwd=cwd, capture_output=True, text=True, timeout=300)
    return p


def result(p):
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    assert lines[-2].startswith("summary ")
    return json.loads(lines[-2][len("summary "):]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    summary, out = result(bench(workload, 0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and summary["error_ratio"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in out["metrics"].items()}
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = [result(bench(workload, 1)) for _ in range(2)]
    for summary, out in runs:
        assert out["correct"] and summary["error_ratio"] == 0
        assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
            {k: v["unit"] for k, v in out["metrics"].items()}
    (s1, a), (s2, b) = runs
    assert s1["inputs_sha256"] == s2["inputs_sha256"]
    counts = [k for k in a["metrics"] if k.endswith(COUNTS)]
    assert counts and all(a["metrics"][k] == b["metrics"][k] for k in counts)


def test_flat_verify_never_searches_minors():
    _, out = result(bench("flat-verify", 1))
    assert out["metrics"]["minors.find_minor.calls"]["value"] == 0
    assert out["metrics"]["wall.is_flat.calls"]["value"] > 0


def test_tracer_restores_every_function():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        spans = importlib.import_module("spans")
        structure = importlib.import_module("flatwall.structure")
        wall_module = importlib.import_module("flatwall.wall")
        before = (structure.find_minor, wall_module.two_disjoint_paths,
                  importlib.import_module("flatwall").verify_certificate)
        with spans.Tracer():
            assert structure.find_minor is not before[0]
            assert wall_module.two_disjoint_paths is not before[1]
        after = (structure.find_minor, wall_module.two_disjoint_paths,
                 importlib.import_module("flatwall").verify_certificate)
        assert after == before
    finally:
        del sys.path[:2]


def test_times_at_reference_speed():
    sys.path.insert(0, HERE)
    try:
        speed = importlib.import_module("speed")
    finally:
        del sys.path[0]
    ref = speed.REFERENCE_S
    assert speed.at_reference_speed([0.02, None, 0.04], [ref] * 3) == [0.02, 0.04]
    assert speed.at_reference_speed([0.02, 0.04], [2 * ref] * 2) == [0.01, 0.02]
    assert speed.Reference()() > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    p = bench("certify", 0, cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
