"""
Quick tests of the benchmark itself: a small-scale pass of every workload,
corrupted results that must be counted as failures, repeatable trace
counts, and the refusal to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import cli_session
import harness
import speedprobe
import tracer
import worker
import workloads
from blobcell import weylb

HERE = os.path.dirname(os.path.abspath(__file__))


def small_pass(name, goldens=None, seed=7):
    goldens = goldens if goldens is not None else harness.load_goldens()
    tasks = worker.build_tasks(name, seed, harness.SMALL, goldens)
    return tasks, worker.run_tasks(tasks, goldens)


def test_group_arithmetic_matches_weylb():
    for w in workloads.signed_perms(4):
        assert workloads.b_length(w) == weylb.length(w)
        assert workloads.signed_inverse(w) == weylb.inverse(w)
        for k in range(4):
            assert workloads.right_mult(w, k) == weylb.apply_generator(w, k)
            assert workloads.left_mult(k, w) == weylb.multiply(
                weylb.apply_generator(weylb.identity(4), k), w)


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_small_pass_is_correct(name):
    tasks, results = small_pass(name)
    assert len(results) == len(tasks) > 0
    assert [r for r in results if not r["ok"]] == []


def test_same_seed_same_inputs():
    a = [t.name for t in worker.build_tasks("hecke-products", 3, harness.FULL, {})]
    b = [t.name for t in worker.build_tasks("hecke-products", 3, harness.FULL, {})]
    c = [t.name for t in worker.build_tasks("hecke-products", 4, harness.FULL, {})]
    assert a == b != c


def test_corrupted_result_is_a_failure(monkeypatch):
    real = weylb.is_in_wb_by_words

    def corrupted(w):
        return (not real(w)) if w == (2, 1, 3, 4) else real(w)

    monkeypatch.setattr(weylb, "is_in_wb_by_words", corrupted)
    tasks, results = small_pass("combinatorics")
    failed = [r["name"] for r in results if not r["ok"]]
    assert len(results) == len(tasks)  # a failure never aborts the pass
    assert "three-way W4" in failed and "knuth_classes 4" not in failed


def test_wrong_golden_is_a_failure():
    goldens = harness.load_goldens()
    key = "fock/canonical/8"
    goldens[key] = "0" * len(goldens[key])
    _, results = small_pass("fock-canonical", goldens)
    assert [r["name"] for r in results if not r["ok"]] == ["canonical_basis deg=8"]


@pytest.mark.parametrize("name", ["combinatorics", "cli-session"])
def test_reference_seconds(name):
    goldens = harness.load_goldens()
    tasks = worker.build_tasks(name, 7, harness.SMALL, goldens)
    probe = speedprobe.SpeedProbe()
    probe.start()
    try:
        results = worker.run_tasks(tasks, goldens, probe=probe)
    finally:
        probe.stop()
    assert all(r["ok"] and r["s"] > 0 and r["ref_s"] > 0 for r in results)


def test_probed_cli_child_reports_and_strips():
    argv = ["klbasis", "4"]  # 1 MB of stdout, written while the probe ticks
    plain = cli_session.run_cli(argv, worker.SRC)
    assert plain.code == 0 and plain.loops == []
    for _ in range(2):
        res = cli_session.run_cli(argv, worker.SRC, probed=True)
        assert res.code == 0 and res.loops and res.probe_s == sum(res.loops)
        assert speedprobe.STDERR_TAG.encode() not in res.stderr
        assert res.stdout == plain.stdout


def test_trace_counts_repeat(tmp_path):
    counts = []
    for i in range(2):
        out = tmp_path / f"trace{i}.json"
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                        "--workload", "combinatorics", "--seed", "5",
                        "--scale", "small", "--trace-out", str(out)],
                       check=True, capture_output=True,
                       env=dict(os.environ, PYTHONPATH=worker.SRC))
        metrics = tracer.layer_metrics(json.loads(out.read_text()))
        counts.append({k: v for k, v in metrics.items()
                       if k.endswith(("_calls", "_terms", "_edges"))})
    assert counts[0] == counts[1]
    assert counts[0]["domino.insert_calls"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "hecke-products", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
