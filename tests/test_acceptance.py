"""Acceptance criteria, one test per criterion, at their stated tolerances.

Criteria 1-7 call the property checks in subrank.verify with their own
counts and seeds and assert that each passes; criteria 8 and 9 (sweep trend
and artifact determinism) have no check there and are derived here. Run
with -s to see one `[PASS] criterion N` line per criterion. Wall-time
budgets are asserted too; they are generous on any desktop-class machine.
"""

import os
import time

import pytest

from subrank import verify
from subrank.functions import hard_family, random_coverage_instance
from subrank.algorithms import (
    balanced_adaptive_greedy,
    brute_force_opt,
    normalized_greedy,
    random_order,
)
from subrank import gmsc as gm
from subrank.harness import ExperimentConfig, sweep
from subrank.instance_io import dumps, instance_to_doc


def report(n, message):
    print(f"\n[PASS] criterion {n}: {message}")


def run_check(check, *args, budget):
    """check(*args), asserted to pass within budget seconds; returns (result, elapsed)."""
    t0 = time.perf_counter()
    result = check(*args)
    elapsed = time.perf_counter() - t0
    assert result.passed, result.detail
    assert elapsed < budget
    return result, elapsed


# --- shared expensive artifacts -------------------------------------------

GMSC16_SEED = 123


@pytest.fixture(scope="module")
def gmsc16():
    inst = gm.random_gmsc_instance(16, 4, 2, GMSC16_SEED)
    solution = gm.solve_lp(inst)
    return inst, solution


SWEEP_SOURCE = {"rows": 600, "cols": 22, "values": 10, "seed": 20}


def run_trend_sweep(mode):
    cfg = ExperimentConfig(
        K=(10,), M=(10,), seeds=(0, 1, 2, 3), synthetic=SWEEP_SOURCE, objective=mode,
    )
    dataset = os.environ.get("SUBRANK_DATASET")
    if dataset and os.path.exists(dataset):
        cfg = ExperimentConfig(
            K=(10,), M=(10,), seeds=(0, 1, 2, 3), dataset=dataset, objective=mode,
        )
    return sweep(cfg)


@pytest.fixture(scope="module")
def trend_sweeps():
    return {mode: run_trend_sweep(mode) for mode in ("minmax", "average")}


# --- criteria ---------------------------------------------------------------


def test_criterion_1_hard_family_exactness():
    _, elapsed = run_check(verify.hard_family_goldens_check, budget=1.0)
    report(1, f"NG trace and agent-k cost exact for k in 4,9,16,25 ({elapsed:.2f}s)")


def test_criterion_2_balanced_beats_stacked_on_hard_family():
    _, elapsed = run_check(verify.balanced_beats_stacked_check, budget=1.0)
    report(2, f"bag=17 ng=33 exactly at k=9 ({elapsed:.2f}s)")


def test_criterion_3_approximation_envelopes():
    result, elapsed = run_check(verify.envelope_check, 50, 1000, budget=120.0)
    report(3, f"{result.detail} ({elapsed:.1f}s)")


def test_criterion_4_chain_bound():
    _, elapsed = run_check(verify.chain_bound_check, 100, 777, budget=10.0)
    report(4, f"400 chains within 1+ln(1/eps)+1e-9 ({elapsed:.1f}s)")


def test_criterion_5_lp_soundness():
    _, elapsed = run_check(verify.lp_soundness_check, 20, 2000, budget=120.0)
    report(5, f"20 instances: T* below integer OPT, half-sum bound holds ({elapsed:.1f}s)")


def test_criterion_6_separation_exactness():
    _, elapsed = run_check(verify.separation_exactness_check, 500, 3000, budget=30.0)
    report(6, f"500 cases match exhaustive enumeration within 1e-9 ({elapsed:.1f}s)")


def test_criterion_7_rounding_envelope():
    result, elapsed = run_check(verify.rounding_check, 200, GMSC16_SEED, budget=300.0)
    report(7, f"{result.detail} ({elapsed:.1f}s)")


def test_criterion_8_experiment_trend(trend_sweeps):
    t0 = time.perf_counter()
    for mode, results in trend_sweeps.items():
        means = {row["algorithm"]: row for row in results.summary()}
        key = "objective_minmax" if mode == "minmax" else "objective_avg"
        bag, ng, rnd = (means[a][key] for a in ("bag", "ng", "random"))
        assert bag <= ng <= rnd, f"{mode}: bag={bag} ng={ng} random={rnd}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(8, "bag <= ng <= random holds in minmax and average modes")


def _csv_without_runtime(table):
    rows = [table.CSV_HEADER.rsplit(",", 2)[0]]  # drop tune_ms and runtime_ms
    for r in table.rows:
        ratio = "" if r.ratio is None else repr(r.ratio)
        rows.append(
            f"{r.algorithm},{r.K},{r.M},{ratio},{r.seed},"
            f"{r.objective_minmax!r},{r.objective_avg!r}"
        )
    return "\n".join(rows)


def test_criterion_9_determinism(gmsc16, trend_sweeps, tmp_path):
    # instance files: identical bytes
    a = dumps(instance_to_doc(hard_family(16, 0.01)))
    b = dumps(instance_to_doc(hard_family(16, 0.01)))
    assert a == b

    # ranking outputs: identical permutations and values
    inst = hard_family(9, 0.01)
    assert normalized_greedy(inst) == normalized_greedy(inst)
    assert balanced_adaptive_greedy(inst)[0] == balanced_adaptive_greedy(inst)[0]
    assert random_order(inst, 4) == random_order(inst, 4)
    small = random_coverage_instance(6, 2, 2, 1000)  # criterion-3 scale
    r1, r2 = brute_force_opt(small), brute_force_opt(small)
    assert (r1.permutation, r1.value) == (r2.permutation, r2.value)

    # LP + rounding: byte-identical CSV dumps, identical schedules
    gi, sol = gmsc16
    sol2 = gm.solve_lp(gi)
    x1, y1 = tmp_path / "x1.csv", tmp_path / "y1.csv"
    x2, y2 = tmp_path / "x2.csv", tmp_path / "y2.csv"
    gm.write_fractional_csv(sol, str(x1), str(y1))
    gm.write_fractional_csv(sol2, str(x2), str(y2))
    assert x1.read_bytes() == x2.read_bytes()
    assert y1.read_bytes() == y2.read_bytes()
    for seed in range(10):
        assert gm.gmsc_schedule(gi, seed, sol) == gm.gmsc_schedule(gi, seed, sol2)

    # sweeps: byte-identical CSVs up to the wall-clock tune_ms and runtime_ms columns
    for mode, results in trend_sweeps.items():
        again = run_trend_sweep(mode)
        assert _csv_without_runtime(results) == _csv_without_runtime(again)

    report(9, "all repeated artifacts bit-identical (tune_ms, runtime_ms columns excluded)")
