"""Tests of the benchmark's own code, on the tiny smoke inputs."""

import json
import math
import os

import pytest

import subrank.cli
import subrank.functions
import subrank.simplex
from perfbench.bench import ROOT, run_benchmark
from perfbench.spans import Tracer
from perfbench.workloads import WORKLOADS

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _smoke(workload, trace, tmp_path, seed=5):
    return run_benchmark(workload, seed, 0, trace, smoke=True, work_root=str(tmp_path))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    original = subrank.cli.normalized_greedy
    record = _smoke(workload, trace, tmp_path)
    assert record["correct"], record["failures"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in record["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in record["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())
    elif workload != "gmsc-lp":
        assert record["metrics"]["simplex.solve_dense_lp.calls"]["value"] == 0
    # the tracer put every hooked function back
    assert subrank.cli.normalized_greedy is original
    assert not os.listdir(os.path.join(tmp_path, ".perfbench_work"))


def test_missing_hook_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.delattr(subrank.simplex, "solve_dense_lp")
    record = _smoke("gmsc-lp", 1, tmp_path)
    assert "subrank.gmsc.simplex.solve_dense_lp" in record["absent_hooks"]
    assert set(record["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    # Every op now fails inside the program; the run still completes and counts them.
    assert record["failed"] == record["attempted"] > 0
    assert _smoke("file-solve", 1, tmp_path)["correct"]


def test_wrong_output_counts_as_failed(monkeypatch, tmp_path):
    real = subrank.cli.normalized_greedy
    monkeypatch.setattr(subrank.cli, "normalized_greedy", lambda inst: real(inst)[::-1])
    record = _smoke("file-solve", 0, tmp_path)
    assert not record["correct"]
    assert 0 < record["failed"] < record["attempted"]
    assert record["metrics"]["pass_frac"]["value"] < 1


def test_self_time_excludes_child_spans():
    tracer = Tracer(hooks=())
    outer = tracer.open("outer", "test")
    inner = tracer.open("inner", "test")
    tracer.close(inner)
    tracer.close(outer)
    inner[5:7] = [1.0, 3.0]
    outer[5:7] = [0.0, 5.0]
    assert tracer.self_times() == {0: 3.0, 1: 2.0}
    assert inner[4] == outer[0]


def test_numerator_calls_are_counted_and_restored():
    cls = subrank.functions.SingletonFunction
    original = vars(cls)["numerator"]
    with Tracer(hooks=()) as tracer:
        cls(element=1).numerator(1)
    assert tracer.counts["functions.numerator.calls"] == 1
    assert vars(cls)["numerator"] is original
