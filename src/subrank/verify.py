"""Desk-scale property suites behind the CLI verify subcommand.

Each check re-derives an invariant the library is supposed to satisfy and
reports pass/fail with a short detail string. These overlap with the test
suite on purpose: they are runnable at a user's desk without pytest.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from subrank.core import (
    cover_report,
    cover_time,
    make_instance,
    normalized_gain_sum,
    objective,
    validate,
)
from subrank.functions import (
    GmscSet,
    OdtTable,
    coverage_function,
    gmsc_function,
    hard_family,
    odt_function,
    random_coverage_instance,
    singleton_function,
)
from subrank.algorithms import (
    BagConfig,
    balanced_adaptive_greedy,
    brute_force_opt,
    greedy,
    normalized_greedy,
    random_order,
)
from subrank import gmsc as gmsc_mod

CHAIN_TOL = 1e-9
FSUM_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.suite}/{self.name}{tail}"


def random_family_oracles(rng: random.Random, n: int) -> list:
    """One oracle of each family over {1..n}: coverage, odt, gmsc, singleton."""
    items = [(i, rng.randint(1, 4)) for i in range(1, rng.randint(2, 4) + 1)]
    covers = {
        e: {i for i, _ in items if rng.random() < 0.5} for e in range(1, n + 1)
    }
    for i, _ in items:  # keep f(U) = 1
        covers[rng.randint(1, n)].add(i)
    rows = None
    while rows is None or len(set(rows)) < len(rows):
        rows = tuple(
            tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(2, 5))
        )
    members = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
    return [
        coverage_function(items, covers),
        odt_function(OdtTable(rows=rows), 1),
        gmsc_function(GmscSet(members=members, K=rng.randint(1, len(members)))),
        singleton_function(rng.randint(1, n)),
    ]


def chain_bound_check(chains_per_family: int = 100, seed: int = 0) -> CheckResult:
    """Normalized-gain telescoping sums stay below 1 + ln(1/eps)."""
    rng = random.Random(seed)
    n = 8
    worst = -math.inf
    for trial in range(chains_per_family):
        for f in random_family_oracles(rng, n):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            bound = 1.0 + math.log(1.0 / f.min_nonzero_marginal)
            slack = bound + CHAIN_TOL - normalized_gain_sum(f, order)
            worst = max(worst, -slack)
            if slack < 0:
                return CheckResult(
                    "core", "chain_bound", False,
                    f"trial {trial}: sum exceeds bound by {-slack:.2e}",
                )
    return CheckResult("core", "chain_bound", True, f"max overshoot {worst:.2e}")


def objective_ordering_check(seed: int = 1) -> CheckResult:
    """minmax >= average >= 0 on random instances and permutations."""
    rng = random.Random(seed)
    for trial in range(30):
        inst = random_coverage_instance(6, rng.randint(1, 3), rng.randint(1, 3), trial)
        order = list(range(1, 7))
        rng.shuffle(order)
        minmax = objective(inst, order, "minmax")
        average = objective(inst, order, "average")
        if not (minmax >= average >= 0.0):
            return CheckResult("core", "objective_ordering", False, f"trial {trial}")
    return CheckResult("core", "objective_ordering", True)


def tail_exchange_check(seed: int = 2) -> CheckResult:
    """Swapping two elements past every cover time changes nothing."""
    for trial in range(20):
        inst = random_coverage_instance(8, 2, 2, seed * 100 + trial)
        perm = list(normalized_greedy(inst))
        report = cover_report(inst, perm)
        last = max(t for times in report.cover_times for t in times)
        if last > len(perm) - 2:
            continue
        swapped = perm.copy()
        swapped[-1], swapped[-2] = swapped[-2], swapped[-1]
        after = cover_report(inst, swapped)
        if after.minmax != report.minmax or after.average != report.average:
            return CheckResult("core", "tail_exchange", False, f"trial {trial}")
    return CheckResult("core", "tail_exchange", True)


def validate_clean_check() -> CheckResult:
    bad = validate(hard_family(9, 0.01))
    if bad:
        return CheckResult("core", "validate_clean", False, str(bad[0]))
    return CheckResult("core", "validate_clean", True)


def hard_family_goldens_check() -> CheckResult:
    """Normalized greedy walks straight into the known bad ordering."""
    for k in (4, 9, 16, 25):
        root = math.isqrt(k)
        inst = hard_family(k, 0.01)
        got = normalized_greedy(inst)
        want = (k,) + tuple(range(1, k)) + tuple(range(k + 1, k + root + 1))
        if got != want:
            return CheckResult("algorithms", "hard_family_goldens", False, f"k={k}: {got}")
        cost = sum(w * cover_time(f, got) for f, w in inst.agents[-1].functions)
        if cost != k * root + root * (root + 1) // 2:
            return CheckResult(
                "algorithms", "hard_family_goldens", False, f"k={k}: agent-{k} cost {cost}"
            )
    return CheckResult("algorithms", "hard_family_goldens", True)


def balanced_beats_stacked_check() -> CheckResult:
    inst = hard_family(9, 0.01)
    bag_perm, _ = balanced_adaptive_greedy(inst)
    bag = objective(inst, bag_perm, "minmax")
    ng = objective(inst, normalized_greedy(inst), "minmax")
    ok = bag == 17.0 and ng == 33.0
    return CheckResult(
        "algorithms", "balanced_beats_stacked", ok, f"bag={bag} ng={ng}"
    )


def envelope_check(instances: int = 20, seed: int = 3) -> CheckResult:
    """Both greedy variants stay inside their proven factors of optimum."""
    rng = random.Random(seed)
    for trial in range(instances):
        inst = random_coverage_instance(
            rng.randint(3, 6), rng.randint(1, 3), rng.randint(1, 2), seed * 997 + trial
        )
        opt = brute_force_opt(inst)
        if not opt.optimal:
            return CheckResult("algorithms", "envelope", False, f"trial {trial}: node limit")
        ng_val = objective(inst, normalized_greedy(inst), "minmax")
        bag_perm, _ = balanced_adaptive_greedy(inst)
        bag_val = objective(inst, bag_perm, "minmax")
        k = len(inst.agents)
        lneps = math.log(1.0 / inst.epsilon)
        ng_bound = (4 * k * lneps + 8 * k) * opt.value
        bag_bound = (
            12.0
            * (1.0 + lneps)
            * math.log2(min(inst.n, math.ceil(inst.W)) + 1)
            * math.log2(k + 1)
            * opt.value
        )
        if not (opt.value - 1e-9 <= ng_val <= ng_bound + 1e-9):
            return CheckResult("algorithms", "envelope", False, f"ng trial {trial}")
        if not (opt.value - 1e-9 <= bag_val <= bag_bound + 1e-9):
            return CheckResult("algorithms", "envelope", False, f"bag trial {trial}")
    return CheckResult("algorithms", "envelope", True, f"{instances} instances")


def fsum_from_trace(trace) -> list:
    """Accumulated pick scores per inner pass: [(pass_record, score_sum)]."""
    sums = {}
    for pick in trace.picks:
        sums.setdefault((pick.round_index, pick.pass_index), 0.0)
        sums[(pick.round_index, pick.pass_index)] += pick.score
    return [
        (rec, sums.get((rec.round_index, rec.pass_index), 0.0)) for rec in trace.passes
    ]


def trace_invariants_check(seed: int = 4) -> CheckResult:
    """Pass-level bookkeeping of balanced adaptive greedy holds."""
    rng = random.Random(seed)
    for trial in range(15):
        inst = random_coverage_instance(7, rng.randint(2, 4), 2, seed * 31 + trial)
        cfg = BagConfig(trace=True)
        _, trace = balanced_adaptive_greedy(inst, cfg)
        lneps = math.log(1.0 / inst.epsilon)
        for rec, fsum in fsum_from_trace(trace):
            cap = (1.0 + lneps) * len(rec.frozen_agents) * rec.prev_baseline
            if fsum > cap + FSUM_TOL:
                return CheckResult(
                    "algorithms", "trace_invariants", False,
                    f"trial {trial}: F-sum {fsum:.4f} > {cap:.4f}",
                )
        for pick in trace.picks:
            frozen = next(
                rec.frozen_agents
                for rec in trace.passes
                if (rec.round_index, rec.pass_index)
                == (pick.round_index, pick.pass_index)
            )
            if not set(pick.active_after) <= set(frozen):
                return CheckResult(
                    "algorithms", "trace_invariants", False,
                    f"trial {trial}: live set escapes its snapshot",
                )
    return CheckResult("algorithms", "trace_invariants", True)


def determinism_check(seed: int = 5) -> CheckResult:
    inst = random_coverage_instance(7, 3, 2, seed)
    same = (
        normalized_greedy(inst) == normalized_greedy(inst)
        and greedy(inst) == greedy(inst)
        and random_order(inst, 9) == random_order(inst, 9)
        and balanced_adaptive_greedy(inst)[0] == balanced_adaptive_greedy(inst)[0]
        and brute_force_opt(inst).permutation == brute_force_opt(inst).permutation
    )
    return CheckResult("algorithms", "determinism", same)


def separation_exactness_check(cases: int = 100, seed: int = 6) -> CheckResult:
    """Oracle's best violation equals exhaustive subset enumeration."""
    rng = random.Random(seed)
    for trial in range(cases):
        size = rng.randint(1, 10)
        n = size
        members = frozenset(range(1, size + 1))
        K = rng.randint(1, size)
        gi = make_instance(n, [[(gmsc_function(GmscSet(members=members, K=K)), 1.0)]])
        x = np.array([[rng.random() * 0.4 for _ in range(n)] for _ in range(n)])
        t = rng.randint(1, n)
        y_val = rng.random()
        y = {(1, tt): (y_val if tt == t else 0.0) for tt in range(1, n + 1)}
        got = gmsc_mod.separation_oracle(gi, x, y, lp_tol=1e-12)
        prefix = np.cumsum(x, axis=1)
        best = max(
            (K - len(B)) * y_val
            - sum(prefix[e - 1, t - 2] if t >= 2 else 0.0 for e in members if e not in B)
            for r in range(size + 1)
            for B in itertools.combinations(sorted(members), r)
        )
        got_v = got.violation if got else 0.0
        if best > 1e-12 and abs(got_v - best) > 1e-9:
            return CheckResult("gmsc", "separation_exactness", False, f"trial {trial}")
        if best <= 1e-12 and got is not None and got.violation > 1e-9:
            return CheckResult("gmsc", "separation_exactness", False, f"trial {trial}")
    return CheckResult("gmsc", "separation_exactness", True, f"{cases} cases")


def lp_soundness_check(instances: int = 8, seed: int = 7) -> CheckResult:
    """T* below the integer optimum; per-agent half-sum bound holds."""
    rng = random.Random(seed)
    for trial in range(instances):
        gi = gmsc_mod.random_gmsc_instance(rng.randint(3, 6), rng.randint(1, 3), 2, trial)
        sol = gmsc_mod.solve_lp(gi)
        if not sol.converged:
            return CheckResult("gmsc", "lp_soundness", False, f"trial {trial}: cut cap")
        opt = brute_force_opt(gi)
        if sol.T_star > opt.value + 1e-6:
            return CheckResult(
                "gmsc", "lp_soundness", False,
                f"trial {trial}: T*={sol.T_star} > OPT={opt.value}",
            )
        for agent_index in range(1, len(gi.agents) + 1):
            half_sum = 0.5 * sum(
                gmsc_mod.t_star(sol.y, sid)
                for sid, owner, _ in gmsc_mod.gmsc_sets(gi)
                if owner == agent_index
            )
            if sol.T_star < half_sum - 1e-7:
                return CheckResult(
                    "gmsc", "lp_soundness", False, f"trial {trial}: half-sum bound"
                )
    return CheckResult("gmsc", "lp_soundness", True, f"{instances} instances")


def rounding_check(seed: int = 8) -> CheckResult:
    """Phase caps respected; schedules are valid permutations, repeatable."""
    gi = gmsc_mod.random_gmsc_instance(8, 2, 2, seed)
    sol = gmsc_mod.solve_lp(gi)
    for s in range(20):
        perm, phases = gmsc_mod.gmsc_schedule_detailed(gi, s, sol)
        if sorted(perm) != list(range(1, gi.n + 1)):
            return CheckResult("gmsc", "rounding", False, f"seed {s}: not a permutation")
        for ph in phases:
            if not ph.emptied and len(ph.picked) > ph.cap:
                return CheckResult("gmsc", "rounding", False, f"seed {s}: cap broken")
        if perm != gmsc_mod.gmsc_schedule(gi, s, sol):
            return CheckResult("gmsc", "rounding", False, f"seed {s}: not repeatable")
    return CheckResult("gmsc", "rounding", True)


SUITES = {
    "core": (
        chain_bound_check,
        objective_ordering_check,
        tail_exchange_check,
        validate_clean_check,
    ),
    "algorithms": (
        hard_family_goldens_check,
        balanced_beats_stacked_check,
        envelope_check,
        trace_invariants_check,
        determinism_check,
    ),
    "gmsc": (
        separation_exactness_check,
        lp_soundness_check,
        rounding_check,
    ),
}


def run_suite(name: str) -> list:
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; pick from {sorted(SUITES)} or 'all'")
    results = []
    for suite in names:
        for check in SUITES[suite]:
            results.append(check())
    return results
