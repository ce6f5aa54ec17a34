"""Property suites: the one place the paper's invariants are derived.

Each check draws the samples it examines from a count and a seed (or
builds fixed paper instances), asserts one invariant, and reports
pass/fail with a short detail string. The CLI verify subcommand runs the
checks at their defaults, so they work at a user's desk without pytest;
tests/test_acceptance.py and the unit tests call the same checks with
their own counts and seeds instead of re-deriving the properties.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from subrank.core import (
    cover_report,
    cover_time,
    is_permutation,
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
    balanced_adaptive_greedy,
    brute_force_opt,
    greedy,
    normalized_greedy,
    random_order,
)
from subrank import gmsc as gmsc_mod

CHAIN_TOL = 1e-9
FSUM_TOL = 1e-9
ENVELOPE_TOL = 1e-9
LP_OPT_TOL = 1e-6
HALF_SUM_TOL = 1e-7
SEP_TOL = 1e-9
#: a tail exchange check that swaps fewer pairs than this examined too little
MIN_SWAPS = 5
#: share of rounding seeds whose schedule must land inside the envelope
ENVELOPE_SHARE = 0.75


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


class _Failed(Exception):
    pass


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise _Failed(detail)


def _check(suite: str):
    """Turn a body that calls _require and returns its pass detail into a check."""

    def wrap(body):
        name = body.__name__.removesuffix("_check")

        @functools.wraps(body)
        def run(*args, **kwargs) -> CheckResult:
            try:
                detail = body(*args, **kwargs)
            except _Failed as exc:
                return CheckResult(suite, name, False, str(exc))
            return CheckResult(suite, name, True, detail or "")

        return run

    return wrap


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


@_check("core")
def chain_bound_check(chains_per_family: int = 100, seed: int = 0) -> str:
    """Normalized-gain telescoping sums stay below 1 + ln(1/eps)."""
    rng = random.Random(seed)
    n = 8
    worst = -math.inf
    for trial in range(chains_per_family):
        for f in random_family_oracles(rng, n):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            bound = 1.0 + math.log(1.0 / f.min_nonzero_marginal)
            overshoot = normalized_gain_sum(f, order) - (bound + CHAIN_TOL)
            _require(overshoot <= 0, f"trial {trial}: sum exceeds bound by {overshoot:.2e}")
            worst = max(worst, overshoot)
    return f"max overshoot {worst:.2e}"


@_check("core")
def objective_ordering_check(seed: int = 1) -> None:
    """minmax >= average >= 0 on random instances and permutations."""
    rng = random.Random(seed)
    for trial in range(30):
        inst = random_coverage_instance(6, rng.randint(1, 3), rng.randint(1, 3), trial)
        order = list(range(1, 7))
        rng.shuffle(order)
        minmax = objective(inst, order, "minmax")
        average = objective(inst, order, "average")
        _require(minmax >= average >= 0.0, f"trial {trial}")


@_check("core")
def tail_exchange_check(instances: int = 20, seed: int = 200) -> str:
    """Swapping the last two elements, both past every cover time, changes nothing.

    Instances are random_coverage_instance(8, 2, 2, s) for s from seed on;
    those that cover only at the last two positions are skipped.
    """
    swaps = 0
    for s in range(seed, seed + instances):
        inst = random_coverage_instance(8, 2, 2, s)
        perm = list(normalized_greedy(inst))
        report = cover_report(inst, perm)
        last = max(t for times in report.cover_times for t in times)
        if last > len(perm) - 2:
            continue
        swapped = perm.copy()
        swapped[-1], swapped[-2] = swapped[-2], swapped[-1]
        after = cover_report(inst, swapped)
        _require(
            (after.minmax, after.average) == (report.minmax, report.average), f"seed {s}"
        )
        swaps += 1
    _require(swaps >= MIN_SWAPS, f"only {swaps} swaps examined")
    return f"{swaps} swaps examined"


@_check("core")
def validate_clean_check() -> None:
    bad = validate(hard_family(9, 0.01))
    _require(not bad, "; ".join(map(str, bad)))


@_check("algorithms")
def hard_family_goldens_check() -> None:
    """Normalized greedy walks straight into the known bad ordering.

    On hard_family(k, 0.01) for k in 4, 9, 16, 25: the exact NG output,
    agent k's exact integer cost, the witness ordering's cost bound, and for
    k >= 16 an NG-to-witness ratio of at least 0.4 sqrt(k).
    """
    delta = 0.01
    for k in (4, 9, 16, 25):
        root = math.isqrt(k)
        inst = hard_family(k, delta)
        got = normalized_greedy(inst)
        want = (k,) + tuple(range(1, k)) + tuple(range(k + 1, k + root + 1))
        _require(got == want, f"k={k}: NG returned {got}")
        # agent k holds unit weights, so its cost is an exact integer sum
        cost = sum(cover_time(f, got) for f, _ in inst.agents[-1].functions)
        _require(cost == k * root + root * (root + 1) // 2, f"k={k}: agent-{k} cost {cost}")
        witness = (k,) + tuple(range(k + 1, k + root + 1)) + tuple(range(1, k))
        witness_value = objective(inst, witness, "minmax")
        _require(
            witness_value <= (root - 1 - delta) + (1 + delta) * (k + root) + 1e-12,
            f"k={k}: witness costs {witness_value}",
        )
        if k >= 16:
            ratio = objective(inst, got, "minmax") / witness_value
            _require(ratio >= 0.4 * root, f"k={k}: ng/witness ratio {ratio:.3f}")


@_check("algorithms")
def balanced_beats_stacked_check() -> str:
    inst = hard_family(9, 0.01)
    bag_perm, _ = balanced_adaptive_greedy(inst)
    bag = objective(inst, bag_perm, "minmax")
    ng = objective(inst, normalized_greedy(inst), "minmax")
    _require((bag, ng) == (17.0, 33.0), f"bag={bag} ng={ng}")
    return f"bag={bag} ng={ng}"


@_check("algorithms")
def envelope_check(instances: int = 20, seed: int = 2991) -> str:
    """Both greedy variants stay inside their proven factors of optimum.

    Instance s, for s from seed on, has n, k, m drawn from random.Random(s)
    in [3, 7], [1, 3], [1, 3] and is random_coverage_instance(n, k, m, s).
    """
    worst_ng = worst_bag = 0.0
    for s in range(seed, seed + instances):
        rng = random.Random(s)
        n, k, m = rng.randint(3, 7), rng.randint(1, 3), rng.randint(1, 3)
        inst = random_coverage_instance(n, k, m, s)
        opt = brute_force_opt(inst)
        _require(opt.optimal, f"seed {s}: search did not finish")
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
        lo = opt.value - ENVELOPE_TOL
        _require(lo <= ng_val <= ng_cap + ENVELOPE_TOL, f"seed {s} (ng)")
        _require(lo <= bag_val <= bag_cap + ENVELOPE_TOL, f"seed {s} (bag)")
        if opt.value > 0:
            worst_ng = max(worst_ng, ng_val / opt.value)
            worst_bag = max(worst_bag, bag_val / opt.value)
    return f"{instances} instances; worst ng/opt={worst_ng:.2f}, bag/opt={worst_bag:.2f}"


@_check("algorithms")
def trace_invariants_check(instances: int = 15, seed: int = 124) -> None:
    """Pass-level bookkeeping of balanced adaptive greedy holds.

    On random_coverage_instance(7, 3, 2, s) for s from seed on, the scores
    picked within a pass sum to at most (1 + ln(1/eps)) * |frozen| * the
    previous baseline, and every pick's live set stays inside its pass's
    frozen snapshot.
    """
    for s in range(seed, seed + instances):
        inst = random_coverage_instance(7, 3, 2, s)
        _, trace = balanced_adaptive_greedy(inst)
        lneps = math.log(1.0 / inst.epsilon)
        fsum = {}
        for pick in trace.picks:
            key = (pick.round_index, pick.pass_index)
            fsum[key] = fsum.get(key, 0.0) + pick.score
        frozen = {}
        for rec in trace.passes:
            key = (rec.round_index, rec.pass_index)
            frozen[key] = set(rec.frozen_agents)
            total = fsum.get(key, 0.0)
            cap = (1.0 + lneps) * len(rec.frozen_agents) * rec.prev_baseline
            _require(total <= cap + FSUM_TOL, f"seed {s}: F-sum {total:.4f} > {cap:.4f}")
        for pick in trace.picks:
            _require(
                set(pick.active_after) <= frozen[(pick.round_index, pick.pass_index)],
                f"seed {s}: live set escapes its snapshot",
            )


@_check("algorithms")
def determinism_check(seed: int = 5) -> None:
    inst = random_coverage_instance(7, 3, 2, seed)
    same = (
        normalized_greedy(inst) == normalized_greedy(inst)
        and greedy(inst) == greedy(inst)
        and random_order(inst, 9) == random_order(inst, 9)
        and balanced_adaptive_greedy(inst)[0] == balanced_adaptive_greedy(inst)[0]
        and brute_force_opt(inst).permutation == brute_force_opt(inst).permutation
    )
    _require(same, "")


def _best_violation(xbar: list, K: int, y_val: float) -> float:
    """Max of (K - |B|) y - sum of xbar outside B over all 2^|S| subsets B.

    The reference the oracle is checked against: a subset-sum table, no
    cleverness.
    """
    s = len(xbar)
    total = math.fsum(xbar)
    sums = [0.0] * (1 << s)
    for mask in range(1, 1 << s):
        low = mask & (-mask)
        sums[mask] = sums[mask ^ low] + xbar[low.bit_length() - 1]
    return max(
        (K - bin(mask).count("1")) * y_val - (total - sums[mask]) for mask in range(1 << s)
    )


@_check("gmsc")
def separation_exactness_check(cases: int = 100, seed: int = 6) -> str:
    """gmsc.violated_cuts finds the violation exhaustive subset enumeration does.

    All cases draw from one random.Random(seed): a single gmsc set of 1 to
    12 members among up to 2 more elements, x entries in [0, 0.5), and y
    nonzero at one time t only, so at most one (set, t) cut can be found.
    """
    rng = random.Random(seed)
    for case in range(cases):
        size = rng.randint(1, 12)
        n = size + rng.randint(0, 2)
        members = sorted(rng.sample(range(1, n + 1), size))
        K = rng.randint(1, size)
        gmsc_set = GmscSet(members=frozenset(members), K=K)
        inst = make_instance(n, [[(gmsc_function(gmsc_set), 1.0)]])
        x = np.array([[rng.random() * 0.5 for _ in range(n)] for _ in range(n)])
        t = rng.randint(1, n)
        y_val = rng.random()
        y = np.zeros((1, n))
        y[0, t - 1] = y_val
        cuts = gmsc_mod.violated_cuts(inst, x, y, lp_tol=1e-12)
        prefix = np.cumsum(x, axis=1)
        xbar = [float(prefix[e - 1, t - 2]) if t >= 2 else 0.0 for e in members]
        best = _best_violation(xbar, K, y_val)
        got_v = max((v for *_, v in cuts), default=None)
        if best > 1e-12:
            _require(
                got_v is not None and abs(got_v - best) <= SEP_TOL,
                f"case {case}: {got_v} vs {best}",
            )
        else:
            _require(got_v is None, f"case {case}: {got_v} vs {best}")
    return f"{cases} cases"


@_check("gmsc")
def lp_soundness_check(instances: int = 8, seed: int = 7) -> str:
    """T* below the integer optimum; per-agent half-sum bound holds.

    Instance s, for s from seed on, has n, k, m drawn from random.Random(s)
    in [3, 7], [1, 3], [1, 2] and is random_gmsc_instance(n, k, m, s).
    """
    for s in range(seed, seed + instances):
        rng = random.Random(s)
        n, k, m = rng.randint(3, 7), rng.randint(1, 3), rng.randint(1, 2)
        inst = gmsc_mod.random_gmsc_instance(n, k, m, s)
        sol = gmsc_mod.solve_lp(inst)
        _require(sol.converged, f"seed {s}: cut cap")
        opt = brute_force_opt(inst)
        _require(opt.optimal, f"seed {s}: search did not finish")
        _require(
            sol.T_star <= opt.value + LP_OPT_TOL,
            f"seed {s}: T*={sol.T_star} exceeds OPT={opt.value}",
        )
        t_sums = [0] * len(inst.agents)
        for sid, owner, _ in gmsc_mod.gmsc_sets(inst):
            t_sums[owner - 1] += gmsc_mod.t_star(sol.y[sid - 1])
        _require(
            all(sol.T_star >= 0.5 * total - HALF_SUM_TOL for total in t_sums),
            f"seed {s}: half-sum bound fails",
        )
    return f"{instances} instances"


@_check("gmsc")
def rounding_check(rounds: int = 20, seed: int = 8) -> str:
    """gmsc.gmsc_schedule gives repeatable permutations inside the phase caps and envelope.

    On random_gmsc_instance(16, 4, 2, seed) and rounding seeds 0..rounds-1,
    every schedule is a permutation, repeats under its seed and comes with
    phase outputs that keep within their caps unless emptied; at least
    ENVELOPE_SHARE of them cost no more than gmsc.rounding_envelope.
    """
    inst = gmsc_mod.random_gmsc_instance(16, 4, 2, seed)
    sol = gmsc_mod.solve_lp(inst)
    _require(sol.converged, "cut cap")
    envelope = gmsc_mod.rounding_envelope(len(inst.agents), sol.T_star)
    within = 0
    for s in range(rounds):
        perm, phases = gmsc_mod.gmsc_schedule(inst, s, sol)
        _require(is_permutation(inst.n, perm), f"seed {s}: not a permutation")
        _require(
            all(ph.emptied or len(ph.picked) <= ph.cap for ph in phases),
            f"seed {s}: cap broken",
        )
        _require(perm == gmsc_mod.gmsc_schedule(inst, s, sol)[0], f"seed {s}: not repeatable")
        within += objective(inst, perm, "minmax") <= envelope
    _require(
        within >= ENVELOPE_SHARE * rounds,
        f"only {within}/{rounds} runs inside the envelope",
    )
    return f"{within}/{rounds} runs within 1024*log2(k)*T* = {envelope:.0f}"


@_check("gmsc")
def stream_seeding_check(seeds=(0, 2**32 - 1, 2**32, 2**128 + 1), sizes=(1, 2000),
                         phases: int = 3, reps: int = 2) -> str:
    """gmsc's bulk rounding streams equal numpy's, word for word and draw for draw.

    For each seed and (phase, rep) key, gmsc.stream_words must equal
    SeedSequence(entropy=seed, spawn_key=key).generate_state(4, np.uint64),
    and gmsc.stream_draws of every n in sizes must equal Generator.random(n)
    of that SeedSequence's PCG64. A numpy release that changes either
    fails here instead of silently changing the schedules.
    """
    words = gmsc_mod.stream_words(seeds, phases, reps)
    draws = {n: gmsc_mod.stream_draws(seeds, phases, reps, n) for n in sizes}
    keys = [(phase, rep) for phase in range(1, phases + 1) for rep in range(1, reps + 1)]
    for b, seed in enumerate(seeds):
        for s, key in enumerate(keys):
            stream = np.random.SeedSequence(entropy=seed, spawn_key=key)
            _require(np.array_equal(words[b, s], stream.generate_state(4, np.uint64)),
                     f"seed {seed} key {key}: state words differ")
            for n, got in draws.items():
                want = np.random.Generator(np.random.PCG64(stream)).random(n)
                _require(np.array_equal(got[b, s], want),
                         f"seed {seed} key {key} n={n}: draws differ")
    return f"{len(seeds)} seeds x {phases * reps} streams x sizes {', '.join(map(str, sizes))}"


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
        stream_seeding_check,
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