"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with -s to see one `[PASS] criterion N` line per criterion. Wall-time
budgets are asserted too; they are generous on any desktop-class machine.
"""

import io
import math
import os
import random
import time

import numpy as np
import pytest

from subrank.core import cover_time, make_instance, normalized_gain_sum, objective
from subrank.functions import (
    GmscSet,
    gmsc_function,
    hard_family,
    random_coverage_instance,
)
from subrank.algorithms import (
    BagConfig,
    balanced_adaptive_greedy,
    brute_force_opt,
    normalized_greedy,
    random_order,
)
from subrank import gmsc as gm
from subrank.harness import ExperimentConfig, sweep
from subrank.instance_io import dumps, instance_to_doc
from subrank.verify import random_family_oracles

CHAIN_TOL = 1e-9
LP_OPT_TOL = 1e-6
SEP_TOL = 1e-9


def report(n, message):
    print(f"\n[PASS] criterion {n}: {message}")


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
    t0 = time.perf_counter()
    for k in (4, 9, 16, 25):
        root = math.isqrt(k)
        delta = 0.01
        inst = hard_family(k, delta)
        got = normalized_greedy(inst)
        want = (k,) + tuple(range(1, k)) + tuple(range(k + 1, k + root + 1))
        assert got == want, f"k={k}: NG returned {got}"

        # agent-k cost via integer arithmetic: unit weights, integer times
        times = [cover_time(f, got) for f, _ in inst.agents[-1].functions]
        assert sum(times) == k * root + root * (root + 1) // 2
        assert sum(times) == sum(k + i for i in range(1, root + 1))

        witness = (k,) + tuple(range(k + 1, k + root + 1)) + tuple(range(1, k))
        witness_value = objective(inst, witness, "minmax")
        assert witness_value <= (root - 1 - delta) + (1 + delta) * (k + root) + 1e-12
        if k >= 16:
            ng_value = objective(inst, got, "minmax")
            assert ng_value / witness_value >= 0.4 * root
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"NG trace and agent-k cost exact for k in 4,9,16,25 ({elapsed:.2f}s)")


def test_criterion_2_balanced_beats_stacked_on_hard_family():
    t0 = time.perf_counter()
    inst = hard_family(9, 0.01)
    bag_perm, _ = balanced_adaptive_greedy(inst)  # default config
    bag = objective(inst, bag_perm, "minmax")
    ng = objective(inst, normalized_greedy(inst), "minmax")
    assert bag == 17.0, f"bag={bag}"
    assert ng == 33.0, f"ng={ng}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"bag=17 ng=33 exactly at k=9 ({elapsed:.2f}s)")


def test_criterion_3_approximation_envelopes():
    t0 = time.perf_counter()
    worst_ng = worst_bag = 0.0
    for i in range(50):
        rng = random.Random(1000 + i)
        n, k, m = rng.randint(3, 7), rng.randint(1, 3), rng.randint(1, 3)
        inst = random_coverage_instance(n, k, m, seed=1000 + i)
        opt = brute_force_opt(inst)
        assert opt.optimal, f"instance {i}: search did not finish"
        ng_val = objective(inst, normalized_greedy(inst), "minmax")
        bag_perm, _ = balanced_adaptive_greedy(inst)
        bag_val = objective(inst, bag_perm, "minmax")
        lneps = math.log(1.0 / inst.epsilon)
        ng_cap = (4 * k * lneps + 8 * k) * opt.value
        bag_cap = (
            12.0
            * (1.0 + lneps)
            * math.log2(min(n, math.ceil(inst.W)) + 1)
            * math.log2(k + 1)
            * opt.value
        )
        assert opt.value - 1e-9 <= ng_val <= ng_cap + 1e-9, f"instance {i} (ng)"
        assert opt.value - 1e-9 <= bag_val <= bag_cap + 1e-9, f"instance {i} (bag)"
        if opt.value > 0:
            worst_ng = max(worst_ng, ng_val / opt.value)
            worst_bag = max(worst_bag, bag_val / opt.value)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(3, f"50 instances; worst ng/opt={worst_ng:.2f}, bag/opt={worst_bag:.2f} ({elapsed:.1f}s)")


def test_criterion_4_chain_bound():
    t0 = time.perf_counter()
    rng = random.Random(777)
    n = 8
    for _ in range(100):  # 100 chains per family
        for f in random_family_oracles(rng, n):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            bound = 1.0 + math.log(1.0 / f.min_nonzero_marginal)
            total = normalized_gain_sum(f, order)
            assert total <= bound + CHAIN_TOL
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(4, f"400 chains within 1+ln(1/eps)+1e-9 ({elapsed:.1f}s)")


def test_criterion_5_lp_soundness():
    t0 = time.perf_counter()
    for i in range(20):
        rng = random.Random(2000 + i)
        n = rng.randint(3, 7)
        gi = gm.random_gmsc_instance(n, rng.randint(1, 3), rng.randint(1, 2), 2000 + i)
        sol = gm.solve_lp(gi)
        assert sol.converged
        opt = brute_force_opt(gi)
        assert opt.optimal
        assert sol.T_star <= opt.value + LP_OPT_TOL, (
            f"instance {i}: T*={sol.T_star} exceeds OPT={opt.value}"
        )
        for agent_index in range(1, len(gi.agents) + 1):
            half = 0.5 * sum(
                gm.t_star(sol.y, sid)
                for sid, owner, _ in gm.gmsc_sets(gi)
                if owner == agent_index
            )
            assert sol.T_star >= half - 1e-7, f"instance {i}: half-sum bound fails"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(5, f"20 instances: T* below integer OPT, half-sum bound holds ({elapsed:.1f}s)")


def _exhaustive_best_violation(xbar, K, y_val):
    """Max violation over all 2^|S| subsets via subset-sum table."""
    s = len(xbar)
    total = math.fsum(xbar)
    sums = [0.0] * (1 << s)
    for mask in range(1, 1 << s):
        low = mask & (-mask)
        sums[mask] = sums[mask ^ low] + xbar[low.bit_length() - 1]
    best = -math.inf
    for mask in range(1 << s):
        picked = bin(mask).count("1")
        best = max(best, (K - picked) * y_val - (total - sums[mask]))
    return best


def test_criterion_6_separation_exactness():
    t0 = time.perf_counter()
    rng = random.Random(3000)
    for case in range(500):
        size = rng.randint(1, 12)
        n = size + rng.randint(0, 2)
        members = sorted(rng.sample(range(1, n + 1), size))
        K = rng.randint(1, size)
        gi = make_instance(n, [[(gmsc_function(GmscSet(members=frozenset(members), K=K)), 1.0)]])
        x = np.array([[rng.random() * 0.5 for _ in range(n)] for _ in range(n)])
        t = rng.randint(1, n)
        y_val = rng.random()
        y = {(1, tt): (y_val if tt == t else 0.0) for tt in range(1, n + 1)}
        got = gm.separation_oracle(gi, x, y, lp_tol=1e-12)
        prefix = np.cumsum(x, axis=1)
        xbar = [float(prefix[e - 1, t - 2]) if t >= 2 else 0.0 for e in members]
        best = _exhaustive_best_violation(xbar, K, y_val)
        got_v = got.violation if got is not None else 0.0
        if best > 1e-12:
            assert abs(got_v - best) <= SEP_TOL, f"case {case}: {got_v} vs {best}"
        else:
            assert got is None or got.violation <= SEP_TOL
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(6, f"500 cases match exhaustive enumeration within 1e-9 ({elapsed:.1f}s)")


def test_criterion_7_rounding_envelope(gmsc16):
    t0 = time.perf_counter()
    inst, sol = gmsc16
    assert sol.converged
    envelope = 1024.0 * math.log2(len(inst.agents)) * sol.T_star
    within = 0
    for seed in range(200):
        perm, phases = gm.gmsc_schedule_detailed(inst, seed, sol)
        assert sorted(perm) == list(range(1, 17)), f"seed {seed}: not a permutation"
        for ph in phases:
            assert ph.emptied or len(ph.picked) <= ph.cap, f"seed {seed}: cap broken"
        cost = objective(inst, perm, "minmax")
        if cost <= envelope:
            within += 1
    assert within >= 150, f"only {within}/200 runs inside the envelope"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(7, f"{within}/200 runs within 1024*log2(k)*T* = {envelope:.0f} ({elapsed:.1f}s)")


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
