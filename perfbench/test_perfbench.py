"""Self-test of the benchmark at a tiny size (N = 6, one operation).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    bench.pin_blas_threads()
    return bench.load_library()


def tiny(name):
    return replace(bench.WORKLOADS[name], degree=6)


def run_tiny(lib, name, trace, out_dir, seed=0):
    return bench.run_workload(tiny(name), seed, seconds=0, trace=trace, out_dir=out_dir,
                              lib=lib)[1]


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(lib, tmp_path, name, trace):
    result = run_tiny(lib, name, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_across_runs_of_one_seed(lib, tmp_path):
    run_tiny(lib, "pullback-n8", 1, tmp_path, seed=5)
    path = next(tmp_path.glob("*.trace1.counts.json"))
    first = path.read_text()
    run_tiny(lib, "pullback-n8", 1, tmp_path, seed=5)
    assert path.read_text() == first
    record = json.loads(first)
    record["ops"][0]["flow.rk4_steps"] += 1
    path.write_text(json.dumps(record))
    with pytest.raises(bench.BenchError, match="differ from an earlier run"):
        run_tiny(lib, "pullback-n8", 1, tmp_path, seed=5)


def test_wrong_answer_counts_as_failed(lib, tmp_path, monkeypatch):
    solve = lib.nf.solve

    def wrong(*args, **kwargs):
        result = solve(*args, **kwargs)
        result.psi = result.psi * 1.5
        return result

    monkeypatch.setattr(lib.nf, "solve", wrong)
    report, result = bench.run_workload(tiny("prefab-n12"), 0, seconds=0, trace=0,
                                        out_dir=tmp_path, lib=lib)
    assert result["failed"] == 1 and not result["correct"]
    assert report["fail_rate"] == 1.0
    assert "recovery" in report["problems"][0][0]


def test_solver_failure_counts_as_failed_and_does_not_abort(lib, tmp_path, monkeypatch):
    def diverge(*args, **kwargs):
        raise lib.nf.ConvergenceError("forced", [])

    monkeypatch.setattr(lib.nf, "solve", diverge)
    report, result = bench.run_workload(tiny("random-n8"), 0, seconds=0, trace=0,
                                        out_dir=tmp_path, lib=lib)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert report["fail_rate"] == 1.0


def test_fails_without_the_library(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "random-n8",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
