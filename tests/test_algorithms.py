"""Ranking algorithms: golden traces, invariants, and the exact oracle."""

import copy
import itertools
import json
import random
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subrank.core import (
    NEVER_COVERED,
    Agent,
    Instance,
    cover_report,
    cover_time,
    is_permutation,
    objective,
    sequential_sum,
)
from subrank.functions import (
    GmscSet,
    OdtTable,
    gmsc_function,
    odt_function,
    coverage_function,
    hard_family,
    random_coverage_instance,
    singleton_function,
)
from subrank import algorithms, core
from subrank.algorithms import (
    BagConfig,
    BruteForceResult,
    PassRecord,
    PickRecord,
    Run,
    _BagRun,
    _Kernel,
    _advance,
    _bag_runs,
    _greedy_run,
    balanced_adaptive_greedy,
    brute_force_opt,
    greedy,
    normalized_greedy,
    random_order,
    write_trace_jsonl,
)
from subrank import verify
from subrank.harness import (
    DEFAULT_RATIO_GRID,
    build_instance,
    discretize,
    synthetic_table,
    tune_ratio,
)


class TestRandomOrder:
    def test_seed_reproducible(self):
        inst = hard_family(9, 0.01)
        assert random_order(inst, 3) == random_order(inst, 3)
        assert random_order(inst, 3) != random_order(inst, 4)

    def test_single_element(self):
        inst = Instance(n=1, agents=(Agent(id=1, functions=((singleton_function(1), 1.0),)),))
        assert random_order(inst, 0) == (1,)

    def test_always_a_permutation(self):
        inst = hard_family(16, 0.01)
        for seed in range(10):
            assert is_permutation(inst.n, random_order(inst, seed))


class TestGreedy:
    def test_max_marginal_weight_first(self):
        # item 1 weighs 5 and only element 2 covers it
        f = coverage_function([(1, 5), (2, 1)], {1: {2}, 2: {1}, 3: {2}})
        inst = Instance(n=3, agents=(Agent(id=1, functions=((f, 1.0),)),))
        assert greedy(inst)[0] == 2

    def test_hard_family_first_pick(self):
        assert greedy(hard_family(4, 0.01))[0] == 4  # gain 3*0.99 beats 1.01

    def test_all_covered_gives_index_order(self):
        f = coverage_function([], {})
        inst = Instance(n=4, agents=(Agent(id=1, functions=((f, 1.0),)),))
        assert greedy(inst) == (1, 2, 3, 4)


class TestNormalizedGreedy:
    def test_hard_family_k4_exact_output(self):
        inst = hard_family(4, 0.01)
        perm = normalized_greedy(inst)
        assert perm == (4, 1, 2, 3, 5, 6)
        assert objective(inst, perm, "minmax") == 11.0

    def test_single_function_matches_greedy(self):
        inst = random_coverage_instance(6, 1, 1, 17)
        assert normalized_greedy(inst) == greedy(inst)


class TestBalancedAdaptiveGreedy:
    def test_hard_family_k9_golden_trace(self):
        inst = hard_family(9, 0.01)
        perm, _ = balanced_adaptive_greedy(inst)
        assert perm == (9, 10, 11, 1, 2, 3, 4, 5, 6, 7, 8, 12)
        costs = [objective(inst, perm, "minmax")]
        assert costs[0] == 17.0  # agent 9: covered at 2, 3, 12

    def test_beats_stacked_greedy_on_hard_family(self):
        result = verify.balanced_beats_stacked_check()  # bag 17 against ng 33
        assert result.passed, result.detail

    def test_identical_agents_collapse_to_ng(self):
        f = coverage_function([(1, 1), (2, 2), (3, 1)], {1: {1}, 2: {2}, 3: {3}, 4: {2, 3}})
        agents = tuple(Agent(id=i, functions=((f, 2.0),)) for i in range(1, 4))
        inst = Instance(n=4, agents=agents)
        bag_perm, _ = balanced_adaptive_greedy(inst)
        assert bag_perm == normalized_greedy(inst)

    def test_all_covered_instance_appends_in_index_order(self):
        f = coverage_function([], {})
        inst = Instance(n=3, agents=(Agent(id=1, functions=((f, 1.0),)),))
        perm, trace = balanced_adaptive_greedy(inst)
        assert perm == (1, 2, 3)
        assert trace.picks == []

    def test_stops_when_a_function_never_covers(self):
        # item 1 is hit by no element, so f(U) = 0 and agent 1 lags forever;
        # the run used to loop without end once every element was placed
        f = coverage_function([(1, 3)], {1: set(), 2: set()})
        inst = Instance(n=2, agents=(Agent(id=1, functions=((f, 1.0), (singleton_function(1), 1.0))),))
        perm, trace = balanced_adaptive_greedy(inst)
        assert perm == (1, 2)
        assert [rec.element for rec in trace.picks] == [1, 2]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BagConfig(ratio=1.0)
        with pytest.raises(ValueError):
            BagConfig(drop_fraction=0.0)

    def test_deterministic_including_trace(self):
        inst = random_coverage_instance(7, 3, 2, 5)
        p1, t1 = balanced_adaptive_greedy(inst)
        p2, t2 = balanced_adaptive_greedy(inst)
        assert p1 == p2
        assert t1.pick_lines() == t2.pick_lines()


class TestBagTraceInvariants:
    def test_baseline_met_at_round_end(self):
        # the last pick of each outer round leaves every agent at or below B_p
        for seed in range(10):
            inst = random_coverage_instance(7, 3, 2, seed)
            _, trace = balanced_adaptive_greedy(inst)
            rounds = {rec.round_index for rec in trace.passes}
            for p in rounds:
                picks = [x for x in trace.picks if x.round_index == p]
                if not picks:
                    continue
                last = picks[-1]
                baseline = next(
                    rec.baseline for rec in trace.passes if rec.round_index == p
                )
                assert last.active_after == ()
                assert all(w <= baseline + 1e-12 for w in last.remaining_weights)

    def test_drop_rule_met_at_pass_end(self):
        for seed in range(10):
            inst = random_coverage_instance(7, 3, 2, seed)
            _, trace = balanced_adaptive_greedy(inst)
            for rec in trace.passes:
                picks = [
                    x
                    for x in trace.picks
                    if (x.round_index, x.pass_index) == (rec.round_index, rec.pass_index)
                ]
                assert picks, "every pass makes at least one pick"
                assert len(picks[-1].active_after) < 0.75 * len(rec.frozen_agents)

    def test_passes_tile_the_picks(self):
        # pass k owns picks start_t..end_t, and pass k + 1 starts right after
        for seed in range(10):
            inst = random_coverage_instance(7, 3, 2, seed)
            _, trace = balanced_adaptive_greedy(inst)
            t = 1
            for rec in trace.passes:
                owned = [x.t for x in trace.picks
                         if (x.round_index, x.pass_index) == (rec.round_index, rec.pass_index)]
                assert rec.start_t == t
                assert owned == list(range(rec.start_t, rec.end_t + 1))
                t = rec.end_t + 1
            assert t == len(trace.picks) + 1

    def test_live_set_stays_inside_snapshot(self):
        result = verify.trace_invariants_check(10, 0)
        assert result.passed, result.detail

    def test_accumulated_scores_bounded_per_pass(self):
        # sum of selection scores within a pass stays under
        # (1 + ln(1/eps)) * |frozen| * previous baseline
        result = verify.trace_invariants_check(20, 0)
        assert result.passed, result.detail

    def test_timestamps_strictly_increasing(self):
        inst = random_coverage_instance(7, 3, 2, 3)
        _, trace = balanced_adaptive_greedy(inst)
        times = [x.t for x in trace.picks]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_jsonl_export_shape(self, tmp_path):
        inst = random_coverage_instance(6, 2, 2, 4)
        _, trace = balanced_adaptive_greedy(inst)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == len(trace.picks)
        rec = json.loads(lines[0])
        assert {"t", "element", "p", "q", "score", "remaining_weights"} <= set(rec)

    def test_default_config_keeps_the_whole_trace(self, tmp_path):
        """A default run returns (run.permutation, run), and every trace line has the weights."""
        inst = random_coverage_instance(7, 3, 2, 5)
        perm, run = balanced_adaptive_greedy(inst)
        assert isinstance(run, Run) and perm == run.permutation
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(run, str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(run.picks) > 1
        for rec, pick in zip(lines, run.picks):
            assert list(rec["remaining_weights"].values()) == list(pick.remaining_weights)
            assert set(rec["remaining_weights"]) == {str(a.id) for a in inst.agents}


class TestBruteForce:
    def test_single_element(self):
        inst = Instance(n=1, agents=(Agent(id=1, functions=((singleton_function(1), 2.0),)),))
        result = brute_force_opt(inst)
        assert result.permutation == (1,)
        assert result.value == 2.0
        assert result.optimal

    def test_hard_family_beats_witness(self):
        inst = hard_family(4, 0.01)
        result = brute_force_opt(inst)
        witness = objective(inst, (4, 5, 6, 1, 2, 3), "minmax")
        assert result.optimal
        assert result.value <= witness + 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_enumeration(self, seed):
        inst = random_coverage_instance(5, 2, 2, seed)
        result = brute_force_opt(inst)
        exhaustive = min(
            objective(inst, perm, "minmax")
            for perm in itertools.permutations(range(1, 6))
        )
        assert result.optimal
        assert result.value == exhaustive

    def test_lower_bounds_every_heuristic(self):
        rng = random.Random(0)
        for seed in range(10):
            inst = random_coverage_instance(6, rng.randint(1, 3), rng.randint(1, 2), seed)
            best = brute_force_opt(inst)
            assert best.optimal
            candidates = [
                random_order(inst, seed),
                greedy(inst),
                normalized_greedy(inst),
                balanced_adaptive_greedy(inst)[0],
            ]
            for perm in candidates:
                assert best.value <= objective(inst, perm, "minmax") + 1e-12

    def test_node_limit_flags_result(self):
        inst = random_coverage_instance(7, 3, 3, 1)
        result = brute_force_opt(inst, node_limit=3)
        assert not result.optimal
        assert is_permutation(inst.n, result.permutation)  # incumbent still valid

    def test_deterministic(self):
        inst = random_coverage_instance(6, 2, 2, 9)
        assert brute_force_opt(inst) == brute_force_opt(inst)


class TestAgentWithoutFunctions:
    """A kernel with no trackers: nothing is ever covered, every order costs 0."""

    inst = Instance(n=3, agents=(Agent(id=1, functions=()),))

    def test_greedy(self):
        assert greedy(self.inst) == (1, 2, 3)

    def test_normalized_greedy(self):
        assert normalized_greedy(self.inst) == (1, 2, 3)

    def test_balanced_adaptive_greedy(self):
        perm, trace = balanced_adaptive_greedy(self.inst)
        assert perm == (1, 2, 3)
        assert trace.picks == []

    def test_brute_force_opt(self):
        result = brute_force_opt(self.inst)
        assert result.permutation == (1, 2, 3)
        assert result.value == 0.0 and type(result.value) is float
        assert result.optimal

    def test_tune_ratio(self):
        ratio, score = tune_ratio(self.inst)
        assert (ratio, score) == (0.05, 0.0) and type(score) is float


def test_all_algorithms_emit_permutations():
    for seed in range(5):
        inst = random_coverage_instance(8, 2, 3, seed)
        perms = [
            random_order(inst, seed),
            greedy(inst),
            normalized_greedy(inst),
            balanced_adaptive_greedy(inst)[0],
        ]
        for perm in perms:
            assert is_permutation(inst.n, perm)


@st.composite
def tie_prone_instances(draw):
    """Small coverage instances with integer item and function weights."""
    n = draw(st.integers(min_value=1, max_value=6))
    agents = []
    for i in range(1, draw(st.integers(min_value=1, max_value=3)) + 1):
        funcs = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            n_items = draw(st.integers(min_value=1, max_value=3))
            items = [(j, draw(st.integers(min_value=1, max_value=3))) for j in range(1, n_items + 1)]
            covers = {
                e: draw(st.sets(st.integers(min_value=1, max_value=n_items)))
                for e in range(1, n + 1)
            }
            funcs.append((coverage_function(items, covers), float(draw(st.integers(1, 3)))))
        agents.append(Agent(id=i, functions=tuple(funcs)))
    return Instance(n=n, agents=tuple(agents))


def reference_order(inst, normalized):
    """Greedy rescored from scratch each step; the first maximum wins."""
    functions = [(f, w) for agent in inst.agents for f, w in agent.functions]
    chosen = []
    while len(chosen) < inst.n:

        def score(e):
            total = 0.0
            for f, w in functions:
                before = f.numerator(f.union_mask(chosen))
                if before == f.denominator:
                    continue  # covered functions contribute nothing
                gain = (f.numerator(f.union_mask(chosen + [e])) - before) / f.denominator
                residual = 1.0 - before / f.denominator if normalized else 1.0
                total += w * gain / residual
            return total

        remaining = [e for e in range(1, inst.n + 1) if e not in chosen]
        chosen.append(max(remaining, key=score))  # max keeps the first of equals
    return tuple(chosen)


def _odt_oracles(n, seed, m):
    """Oracles of m distinct rows of a small clustered table with n columns."""
    values = synthetic_table(40, n, 3, seed).values
    rows = list(dict.fromkeys(tuple(r) for r in values))[:m]
    assume(len(rows) >= 2)
    table = OdtTable(rows=tuple(rows))
    return [odt_function(table, j) for j in range(1, len(rows) + 1)]


@st.composite
def family_oracles(draw, n):
    """A few oracles of one family (or of all four mixed) over 1..n."""
    kind = draw(st.sampled_from(["coverage", "odt", "gmsc", "singleton", "mixed"]))
    elements = st.integers(min_value=1, max_value=n)
    pool = []
    if kind in ("odt", "mixed"):
        pool += _odt_oracles(n, draw(st.integers(0, 30)), draw(st.integers(2, 4)))
    if kind in ("gmsc", "mixed"):
        for _ in range(draw(st.integers(1, 3))):
            members = draw(st.frozensets(elements, min_size=1))
            pool.append(gmsc_function(GmscSet(members, draw(st.integers(1, len(members))))))
    if kind in ("singleton", "mixed"):
        pool += [singleton_function(draw(elements)) for _ in range(draw(st.integers(1, 3)))]
    if kind in ("coverage", "mixed"):
        for _ in range(draw(st.integers(1, 3))):
            n_items = draw(st.integers(0, 3))
            items = [(j, draw(st.integers(1, 3))) for j in range(1, n_items + 1)]
            covers = {e: draw(st.sets(st.integers(1, n_items))) if n_items else set()
                      for e in range(1, n + 1)}
            pool.append(coverage_function(items, covers))
    return pool


@st.composite
def shared_oracle_instances(draw, weights=st.integers(1, 3).map(float)):
    """Agents holding oracles drawn, with repeats, from one pool; integer weights by default."""
    n = draw(st.integers(min_value=2, max_value=6))
    pool = draw(family_oracles(n))
    agents = []
    for i in range(1, draw(st.integers(min_value=1, max_value=3)) + 1):
        picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        funcs = tuple((f, draw(weights)) for f in picks)
        agents.append(Agent(id=i, functions=funcs))
    return Instance(n=n, agents=tuple(agents))


@settings(max_examples=150, deadline=None)
@given(inst=st.one_of(tie_prone_instances(), shared_oracle_instances()))
def test_pick_kernel_matches_reference(inst):
    assert greedy(inst) == reference_order(inst, normalized=False)
    assert normalized_greedy(inst) == reference_order(inst, normalized=True)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_one_element_gain_is_linear_in_item_incidence(data):
    """The invariant the kernel's gain matrix rests on, for every family."""
    n = data.draw(st.integers(min_value=2, max_value=6))
    for f in data.draw(family_oracles(n)):
        width = len(f.item_weights)
        hits = Instance(n=n, agents=(Agent(id=1, functions=((f, 1.0),)),)).hits
        for e in range(1, n + 1):
            bits = f.element_mask(e)
            assert list(hits[e - 1, :width]) == [(bits >> b) & 1 for b in range(width)]
        mask = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        if f.numerator(mask) == f.denominator:
            continue  # a covered numerator is capped: the gain law holds only below the cap
        for e in range(1, n + 1):
            bits = f.element_mask(e)
            new = bits & ~mask
            expected = sum(w for b, w in enumerate(f.item_weights) if (new >> b) & 1)
            assert f.numerator(mask | bits) - f.numerator(mask) == expected


def _item_bits(kernel):
    """Word path: each item column's bit in a row of words, from heads, starts and owner.

    Tracker j's items are the low bits, in column order, of its words from
    word heads[j] on, so column c of tracker j = owner[c] is bit
    heads[j] * 64 + c - starts[j].
    """
    return np.arange(kernel.owner.size) + (kernel.heads * 64 - kernel.starts)[kernel.owner]


def _live_weights(kernel):
    """Each item column's live weight, 0.0 once dead, on either gain path."""
    if kernel.words is None:
        return kernel.live
    live = np.unpackbits(kernel.live.view(np.uint8), bitorder="little")
    return live[_item_bits(kernel)].astype(float)


def _full_fill(kernel):
    """The gain matrix from every item column, dead ones included, on either gain path."""
    rows = np.array(kernel.remaining, dtype=np.intp) - 1
    return np.add.reduceat(kernel.hits[rows] * _live_weights(kernel), kernel.starts, axis=1)


def _float_path():
    """Send every kernel built inside to the float gain path, unit items or not."""
    return mock.patch.object(algorithms, "_unit_items", lambda oracles: False)


def _check_kernel(inst, kernel, picks):
    """The kernel's gain caches, live items and remaining elements after the picks."""
    assert kernel.remaining == [e for e in range(1, inst.n + 1) if e not in picks]
    gains = kernel.gains()
    assert gains.shape == (len(kernel.remaining), len(inst.oracles))
    assert np.array_equal(gains, _full_fill(kernel))
    assert np.array_equal(kernel.scaled(), gains / kernel.den)
    live = _live_weights(kernel)
    for j, f in enumerate(inst.oracles):
        mask = f.union_mask(picks)
        at = kernel.starts[j]
        assert list(live[at:at + len(f.item_weights)]) == [
            0.0 if (mask >> p) & 1 else w for p, w in enumerate(f.item_weights)]
        assert kernel.covered[j] == f.mask_covers(mask)
        if kernel.covered[j]:
            assert kernel.time[j] == cover_time(f, picks)
            continue  # a covered tracker's gains are never read
        assert kernel.time[j] == -1
        for row, e in enumerate(kernel.remaining):
            assert gains[row, j] == f.numerator(mask | f.element_mask(e)) - f.numerator(mask)


def _check_pair(inst, kernels, picks):
    """Both kernels are exact and hold the same state, bit for bit."""
    for kernel in kernels:
        _check_kernel(inst, kernel, picks)
    word, floats = kernels
    for read in (lambda k: k.num, lambda k: k.covered, lambda k: k.time, lambda k: k.gains(),
                 lambda k: k.scaled(), _live_weights):
        a, b = read(word), read(floats)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _walk_kernel(inst, data, live_fill_cells):
    """Walk a kernel and a float-path one through drawn picks, saves and restores, in lockstep.

    The first kernel takes the instance's own gain path; the second is
    forced onto the float path. Each state is checked on both.
    """
    with mock.patch.object(algorithms, "_LIVE_FILL_CELLS", live_fill_cells):
        kernel = _Kernel(inst)
        with _float_path():
            floats = _Kernel(inst)
        assert floats.words is None
        kernels = (kernel, floats)
        picks: list = []
        stack: list = []
        _check_pair(inst, kernels, picks)
        for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
            actions = ["save"] + ["advance"] * bool(kernel.remaining) + ["restore"] * bool(stack)
            action = data.draw(st.sampled_from(actions))
            if action == "advance":
                e = data.draw(st.sampled_from(kernel.remaining))
                newly = [_advance(k, e) for k in kernels]
                assert np.array_equal(*newly)
                picks.append(e)
            elif action == "save":
                stack.append(([(k.save(), k.remaining, k.gains(), k.scaled()) for k in kernels],
                              list(picks)))
            else:
                states, picks = stack.pop()
                for k, (saved, remaining, gains, scaled) in zip(kernels, states):
                    k.restore(saved)
                    assert k.remaining is remaining
                    assert k.gains() is gains
                    assert k.scaled() is scaled
            _check_pair(inst, kernels, picks)


@settings(max_examples=150, deadline=None)
@given(inst=st.one_of(tie_prone_instances(), shared_oracle_instances()), data=st.data())
def test_kernel_gains_follow_advance_save_restore(inst, data):
    """After any walk of picks, saves and restores, the gain caches and cover times are exact.

    At the module's threshold these small instances fill from every item.
    """
    _walk_kernel(inst, data, algorithms._LIVE_FILL_CELLS)


@settings(max_examples=150, deadline=None)
@given(inst=st.one_of(tie_prone_instances(), shared_oracle_instances()), data=st.data())
def test_kernel_gains_follow_advance_save_restore_live_fill(inst, data):
    """As above, with threshold 0 so every float-path fill reads only live items.

    Both strategies draw coverage items of weights 1-3, so weighted
    instances, whose own kernel takes the float path, are among the draws;
    the forced float-path kernel of a unit-weight one reads live items too.
    """
    _walk_kernel(inst, data, 0)


@st.composite
def unit_item_instances(draw, widths):
    """Instances whose every item weighs 1, with trackers of one or more 64-bit words.

    The pool holds one unit coverage oracle per width in widths (every item
    hit by some element, the hits drawn from a seeded stream), plus drawn
    gmsc sets of sizes 1-5, singletons, decision-table rows and coverage
    oracles without items; agents hold them, with repeats, at weights that
    need not be integers.
    """
    n = draw(st.integers(min_value=2, max_value=6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pool = []
    for width in widths:
        p = rng.random()
        covers = {e: set() for e in range(1, n + 1)}
        for item in range(1, width + 1):
            covers[rng.randint(1, n)].add(item)
            for e in range(1, n + 1):
                if rng.random() < p:
                    covers[e].add(item)
        pool.append(coverage_function([(item, 1) for item in range(1, width + 1)], covers))
    kinds = st.sampled_from(["gmsc", "singleton", "odt", "itemless"])
    for kind in draw(st.lists(kinds, min_size=not widths, max_size=3)):
        if kind == "gmsc":
            members = frozenset(rng.sample(range(1, n + 1), draw(st.integers(1, min(5, n)))))
            pool.append(gmsc_function(GmscSet(members, draw(st.integers(1, len(members))))))
        elif kind == "singleton":
            pool.append(singleton_function(draw(st.integers(1, n))))
        elif kind == "odt":
            pool += _odt_oracles(n, draw(st.integers(0, 30)), draw(st.integers(2, 4)))
        else:
            pool.append(coverage_function([], {}))
    agents = []
    for i in range(1, draw(st.integers(min_value=1, max_value=3)) + 1):
        picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        weights = st.sampled_from([1.0, 2.0, 3.0, 0.5, 1 / 3, 0.7])
        agents.append(Agent(id=i, functions=tuple((f, draw(weights)) for f in picks)))
    return Instance(n=n, agents=tuple(agents))


def _ranker_outputs(inst):
    """Every ranker's permutation, report and trace lines, and brute force's result."""
    out = []
    for normalized in (False, True):
        run = _greedy_run(inst, normalized)
        out.append((run.permutation, _outcome(lambda: run.report)))
    for ratio in (0.1, 2.0 / 3.0, 0.9):
        perm, run = balanced_adaptive_greedy(inst, BagConfig(ratio=ratio))
        out.append((perm, run.pick_lines(), run.passes, _outcome(lambda: run.report)))
    out.append(_outcome(tune_ratio, inst))
    result = brute_force_opt(inst)
    out.append((result.permutation, result.value.hex(), result.optimal, result.nodes))
    return out


# one word (63, 64), two (65, 128), every tracker two (65, 128 alone), and
# nine (576); with gmsc sets of sizes 1-5 and the rest
@pytest.mark.parametrize("widths", [(), (63,), (64,), (65,), (128,), (65, 128), (63, 576)],
                         ids=lambda widths: "-".join(map(str, widths)) or "none")
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_word_path_matches_float_path(widths, data):
    """Unit-weight items take the word path, and it gives the float path's outputs bit for bit."""
    inst = data.draw(unit_item_instances(widths))
    kernel = _Kernel(inst)
    # each item column's bit holds its hits, and every other bit is 0
    bits = np.unpackbits(kernel.words.view(np.uint8), axis=1, bitorder="little")
    expected = np.zeros_like(bits)
    expected[:, _item_bits(kernel)] = kernel.hits
    assert np.array_equal(bits, expected)
    with mock.patch.object(core, "_WINDOW_CELLS", 1):  # one row per chunk
        assert np.array_equal(_Kernel(inst).words, kernel.words)
    words = _ranker_outputs(inst)
    with _float_path():
        floats = _ranker_outputs(Instance(n=inst.n, agents=inst.agents))
    assert words == floats
    _walk_kernel(inst, data, algorithms._LIVE_FILL_CELLS)


def test_gain_path_follows_item_weights():
    """One item weight other than 1 sends an instance to the float path; no items is no such weight."""
    unit = [coverage_function([(1, 1), (2, 1)], {1: {1}, 2: {2}}), coverage_function([], {}),
            gmsc_function(GmscSet(frozenset({1, 3}), 1)), singleton_function(3)]
    weighted = coverage_function([(1, 1), (2, 2)], {1: {1}, 3: {2}})

    def kernel(oracles):
        functions = tuple((f, 1.0) for f in oracles)
        return _Kernel(Instance(n=3, agents=(Agent(id=1, functions=functions),)))

    assert kernel(unit).words is not None
    assert kernel([coverage_function([], {})]).words is not None
    assert kernel(unit + [weighted]).words is None
    assert kernel([weighted]).words is None


def test_tune_ratio_fills_gains_once_per_state(monkeypatch):
    """The ratios' picks at one kernel state share that state's gain fill and division."""
    fills, divisions, picks = [], [], []
    fill, scaled, pick = _Kernel._fill_gains, _Kernel.scaled, algorithms._pick

    def counted_fill(kernel):
        # _advance makes a new remaining list per state; holding each keeps ids unique
        fills.append(kernel.remaining)
        return fill(kernel)

    def counted_scaled(kernel):
        if kernel._scaled is None:
            divisions.append(kernel.remaining)
        return scaled(kernel)

    def counted_pick(*args):
        picks.append(args)
        return pick(*args)

    monkeypatch.setattr(_Kernel, "_fill_gains", counted_fill)
    monkeypatch.setattr(_Kernel, "scaled", counted_scaled)
    monkeypatch.setattr(algorithms, "_pick", counted_pick)
    inst = build_instance(discretize(synthetic_table(600, 22, 10, 20)), 20, 20, 31)
    tune_ratio(inst)
    assert 0 < len(fills) < len(picks)
    assert len({id(remaining) for remaining in fills}) == len(fills)
    assert 0 < len(divisions) < len(picks)
    assert len({id(remaining) for remaining in divisions}) == len(divisions)


def test_live_fills_equal_full_fills(monkeypatch):
    """On weighted coverage, tuning fills some states from live items only, bit for bit.

    The instance is file-solve's largest shape: n=60, k=30, m=10, item weights 1-5.
    """
    paths = []
    fill = _Kernel._fill_gains

    def checked_fill(kernel):
        assert kernel.words is None
        dead = kernel.live.size - np.count_nonzero(kernel.live)
        paths.append(len(kernel.remaining) * dead >= algorithms._LIVE_FILL_CELLS)
        gains = fill(kernel)
        assert np.array_equal(gains, _full_fill(kernel))
        return gains

    monkeypatch.setattr(_Kernel, "_fill_gains", checked_fill)
    tune_ratio(random_coverage_instance(60, 30, 10, 31))
    assert any(paths)


def _check_screened_picks(monkeypatch):
    """Make every _pick also run with the screen off and assert both give the same bits.

    Returns the list that collects, per pick, (rows kept, rows) when the
    screen ran and None when it fell back.
    """
    pick, contenders, kept = algorithms._pick, algorithms._contenders, []

    def counted_contenders(scaled, *args):
        rows = contenders(scaled, *args)
        kept.append(None if rows is None else (rows.size, len(scaled)))
        return rows

    def checked_pick(kernel, states, normalized):
        with mock.patch.object(algorithms, "_SCREEN_STATES_PER_TRACKER", float("inf")):
            e, score = pick(kernel, states, normalized)
        got = pick(kernel, states, normalized)
        assert (got[0], got[1].hex()) == (e, score.hex())
        return got

    monkeypatch.setattr(algorithms, "_contenders", counted_contenders)
    monkeypatch.setattr(algorithms, "_pick", checked_pick)
    return kept


@settings(max_examples=300, deadline=None)
@given(inst=st.one_of(
    tie_prone_instances(),
    shared_oracle_instances(),
    shared_oracle_instances(weights=st.sampled_from([0.1, 1 / 3, 0.7, 1.0, 1.1, 2 / 3, 3.0])),
))
# NG's third pick, after 4 and 1: elements 2 and 3 both sum to 1.5, but
# element 2's approx is (6/7) * (7/6) + 0.5 = 1.4999999999999998, so a
# screen without slack would keep only element 3 and lose the tie-break.
@example(inst=Instance(n=4, agents=(
    Agent(id=1, functions=((coverage_function([(1, 1), (2, 1), (3, 1)], {1: {1}, 4: {2, 3}}), 2.0),
                           (coverage_function([(1, 1), (2, 1)], {3: {1, 2}}), 1.0),
                           (coverage_function([(1, 1)], {4: {1}}), 1.0))),
    Agent(id=2, functions=((coverage_function([(1, 3), (2, 3), (3, 1)], {1: {3}, 2: {1, 2}}), 1.0),
                           (coverage_function([(1, 1)], {}), 1.0))),
    Agent(id=3, functions=((coverage_function([(1, 1), (2, 1)], {2: {1}, 3: {1}}), 1.0),)),
)))
def test_screened_picks_equal_full_picks(inst):
    """With the screen's gate open, greedy, NG and every BAG run of a tuning grid pick as unscreened."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(algorithms, "_SCREEN_STATES_PER_TRACKER", 0)
        _check_screened_picks(monkeypatch)
        greedy(inst)
        normalized_greedy(inst)
        _outcome(tune_ratio, inst)


def test_screen_fires_in_tuning_and_keeps_every_pick(monkeypatch):
    """On odt K=20, M=20, tuning screens some picks, and each screened pick is the full one."""
    kept = _check_screened_picks(monkeypatch)
    tune_ratio(build_instance(discretize(synthetic_table(600, 22, 10, 20)), 20, 20, 31))
    screened = [k for k in kept if k is not None]
    assert all(1 <= size <= rows for size, rows in screened)
    assert any(size < rows for size, rows in screened)


@pytest.mark.parametrize("weights", [
    (1e308,) * 4,
    (sys.float_info.max, 1e308, 2.0, sys.float_info.max / 3),
    (5e-324,) * 4,
    (5e-324, 1.0, 2**-968, 3.0),
    (5e-324, sys.float_info.max, 1.0, 1e-300),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_screen_falls_back_on_extreme_weights(weights, monkeypatch):
    """Huge and subnormal weights rank as with the screen off, and raise nothing."""
    tables = [coverage_function([(1, 1), (2, 2)], {1: {1}, 2: {2}, 3: {1, 2}}),
              coverage_function([(1, 3), (2, 1)], {2: {1}, 3: {2}, 4: {1, 2}}),
              singleton_function(4)]
    inst = Instance(n=4, agents=tuple(Agent(id=i, functions=tuple((f, w) for f in tables))
                                      for i, w in enumerate(weights, start=1)))

    def runs():
        return (greedy(inst), normalized_greedy(inst),
                balanced_adaptive_greedy(inst)[1].pick_lines())

    monkeypatch.setattr(algorithms, "_SCREEN_STATES_PER_TRACKER", float("inf"))
    full = runs()
    monkeypatch.setattr(algorithms, "_SCREEN_STATES_PER_TRACKER", 0)
    kept = _check_screened_picks(monkeypatch)
    assert runs() == full
    assert None in kept  # some pick fell back to the full sums


def test_tune_ratio_finds_each_lagging_set_once_per_node(monkeypatch):
    """BAG runs at one node share each baseline's lagging set."""
    node, calls = [0], Counter()  # node: advances so far, since every advance makes one
    advance, lagging = algorithms._advance, _BagRun.lagging

    def counted_advance(kernel, e):
        node[0] += 1
        return advance(kernel, e)

    def counted_lagging(ids, rem_weight, b):
        calls[node[0], b] += 1
        return lagging(ids, rem_weight, b)

    monkeypatch.setattr(algorithms, "_advance", counted_advance)
    monkeypatch.setattr(_BagRun, "lagging", staticmethod(counted_lagging))
    tune_ratio(build_instance(discretize(synthetic_table(600, 22, 10, 20)), 50, 50, 31))
    assert calls and max(calls.values()) == 1


def _bag_outputs(inst):
    out = []
    for ratio in (0.1, 0.35, 2.0 / 3.0, 0.9):
        perm, trace = balanced_adaptive_greedy(inst, BagConfig(ratio=ratio))
        out.append((perm, trace.pick_lines(), trace.passes))
    return out


@settings(max_examples=100, deadline=None)
@given(inst=shared_oracle_instances())
def test_shared_and_distinct_oracles_give_identical_outputs(inst):
    """Sharing trackers between agents changes no output, bit for bit."""
    distinct = Instance(n=inst.n, agents=tuple(
        Agent(id=a.id, functions=tuple((copy.deepcopy(f), w) for f, w in a.functions))
        for a in inst.agents
    ))
    perms = [greedy(inst), normalized_greedy(inst)]
    assert perms == [greedy(distinct), normalized_greedy(distinct)]
    assert _bag_outputs(inst) == _bag_outputs(distinct)
    for perm in perms:
        assert _outcome(cover_report, inst, perm) == _outcome(cover_report, distinct, perm)
    assert _outcome(brute_force_opt, inst) == _outcome(brute_force_opt, distinct)


def reference_tune(inst, grid, mode):
    """tune_ratio as one solo BAG run and one cover_report per ratio."""
    best = None
    for r in sorted(x for x in grid if 0 < x < 1):
        perm, _ = balanced_adaptive_greedy(inst, BagConfig(ratio=r))
        report = cover_report(inst, perm)
        value = report.minmax if mode == "minmax" else report.average
        if best is None or value < best[1]:
            best = (r, value)
    return best


@settings(max_examples=150, deadline=None)
@given(
    inst=st.one_of(tie_prone_instances(), shared_oracle_instances()),
    ratios=st.lists(st.sampled_from(DEFAULT_RATIO_GRID), min_size=1, max_size=12),
    drop_fraction=st.sampled_from([0.5, 0.75, 1.0]),
)
# the full grid branches three ways at one prefix of this instance
@example(inst=random_coverage_instance(8, 3, 3, 2), ratios=list(DEFAULT_RATIO_GRID),
         drop_fraction=0.75)
def test_lockstep_grid_matches_solo_runs(inst, ratios, drop_fraction):
    """Every ratio of a grid run records exactly what its run alone records."""
    runs = _bag_runs(inst, ratios, drop_fraction)
    assert len(runs) == len(ratios)
    for ratio, run in zip(ratios, runs):
        cfg = BagConfig(ratio=ratio, drop_fraction=drop_fraction)
        solo_perm, solo = balanced_adaptive_greedy(inst, cfg)
        assert run.permutation == solo_perm
        assert run.pick_lines() == solo.pick_lines()
        assert run.picks == solo.picks
        assert run.passes == solo.passes
    for mode in ("minmax", "average"):
        assert (_outcome(tune_ratio, inst, ratios, mode)
                == _outcome(reference_tune, inst, ratios, mode))


def _outcome(fn, *args):
    """fn's result, or its error message: evaluators raise when some f(U) < 1."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def reference_brute_force(inst, node_limit=2_000_000):
    """brute_force_opt entering every child and bounding it on arrival, without the kernel.

    A node's children are its remaining elements, in ascending order, that
    raise the numerator of some function the prefix leaves uncovered. Each
    child is pruned when the max over agents of w * (the function's cover
    time within the prefix, or depth + 1 while the prefix leaves it
    uncovered), summed in function order as cover_report sums, reaches the
    incumbent. Coverage, gains and cover times come from scalar numerators.
    A leaf is valued by objective.
    """
    ng = normalized_greedy(inst)
    incumbent = {"perm": ng, "value": objective(inst, ng, "minmax")}
    functions = [f for agent in inst.agents for f, _ in agent.functions]
    state = {"nodes": 0, "limit_hit": False}
    chosen: list = []

    def bound(depth):
        def time(f):
            try:
                return cover_time(f, chosen)
            except ValueError:  # not covered within the prefix
                return depth + 1

        return max(sequential_sum(w * time(f) for f, w in agent.functions)
                   for agent in inst.agents)

    def remaining():
        return [e for e in range(1, inst.n + 1) if e not in chosen]

    def close_leaf():
        perm = tuple(chosen) + tuple(remaining())
        value = objective(inst, perm, "minmax")
        if value < incumbent["value"]:
            incumbent["value"] = value
            incumbent["perm"] = perm

    def search(depth):
        state["nodes"] += 1
        if state["nodes"] > node_limit:
            state["limit_hit"] = True
            return
        masks = [(f, f.union_mask(chosen)) for f in functions]
        uncovered = [(f, mask) for f, mask in masks if not f.mask_covers(mask)]
        if not uncovered:
            close_leaf()
            return
        if bound(depth) >= incumbent["value"]:
            return
        for e in remaining():
            if state["limit_hit"]:
                return
            if any(f.numerator(mask | f.element_mask(e)) > f.numerator(mask)
                   for f, mask in uncovered):
                chosen.append(e)
                search(depth + 1)
                chosen.pop()

    search(0)
    return BruteForceResult(permutation=incumbent["perm"], value=incumbent["value"],
                            optimal=not state["limit_hit"], nodes=state["nodes"])


FRACTIONAL_WEIGHTS = (0.37, 1.0 / 3.0, 0.1, 1.0, 2.5)


@st.composite
def brute_instances(draw):
    """Coverable coverage, gmsc and singleton oracles, some shared between agents.

    Weights are all integers or drawn from FRACTIONAL_WEIGHTS, which sends
    brute force down its guarded path. A coverage oracle without items is
    covered at the root, so brute force bounds children around a function
    whose cover time is already 0.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    elements = st.integers(min_value=1, max_value=n)
    pool = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["coverage", "gmsc", "singleton", "empty"]))
        if kind == "empty":
            pool.append(coverage_function([], {}))
        elif kind == "singleton":
            pool.append(singleton_function(draw(elements)))
        elif kind == "gmsc":
            members = draw(st.frozensets(elements, min_size=1))
            pool.append(gmsc_function(GmscSet(members, draw(st.integers(1, len(members))))))
        else:
            n_items = draw(st.integers(min_value=1, max_value=3))
            covers: dict = {}
            for j in range(1, n_items + 1):  # every item has a hitter, so f(U) = 1
                for e in draw(st.frozensets(elements, min_size=1)):
                    covers.setdefault(e, set()).add(j)
            items = [(j, draw(st.integers(1, 3))) for j in range(1, n_items + 1)]
            pool.append(coverage_function(items, covers))
    weights = st.sampled_from(draw(st.sampled_from([(1.0, 2.0, 3.0, 5.0), FRACTIONAL_WEIGHTS])))
    agents = []
    for i in range(1, draw(st.integers(min_value=1, max_value=3)) + 1):
        picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        agents.append(Agent(id=i, functions=tuple((f, draw(weights)) for f in picks)))
    return Instance(n=n, agents=tuple(agents))


def _integral(inst):
    return all(float(w).is_integer() for a in inst.agents for _, w in a.functions)


def _answer(result):
    return result.permutation, float(result.value).hex(), result.optimal


@settings(max_examples=150, deadline=None)
@given(inst=brute_instances(), node_limit=st.integers(min_value=0, max_value=40))
# the sub-unit weight of hard_family takes the guarded path
@example(inst=hard_family(4), node_limit=40)
def test_brute_force_matches_reference(inst, node_limit):
    """Same permutation, value bits and optimality as the per-child search.

    On the guarded path (fractional weights) the search also enters exactly
    the reference's nodes, under a node limit too. The ceil bound of the
    integer path only prunes more: it never enters more nodes, so it can
    finish within a limit that the reference passes.
    """
    integral = _integral(inst)
    result, reference = brute_force_opt(inst), reference_brute_force(inst)
    assert _answer(result) == _answer(reference)
    assert result.nodes <= reference.nodes if integral else result.nodes == reference.nodes
    limited = brute_force_opt(inst, node_limit)
    limited_ref = reference_brute_force(inst, node_limit)
    assert is_permutation(inst.n, limited.permutation)
    if integral:
        assert limited.optimal or not limited_ref.optimal
        if limited.optimal:
            assert _answer(limited) == _answer(result)
    else:
        assert limited == limited_ref


@pytest.mark.parametrize("seed", range(4))
def test_ceil_bound_prunes_only_integer_weights(seed):
    """The ceil bound cuts nodes at integer weights; a 1/3 scale turns it off."""
    inst = random_coverage_instance(8, 4, 3, seed)
    thirds = Instance(n=inst.n, agents=tuple(
        Agent(id=a.id, functions=tuple((f, w / 3.0) for f, w in a.functions))
        for a in inst.agents))
    assert _integral(inst) and not _integral(thirds)
    result, reference = brute_force_opt(inst), reference_brute_force(inst)
    assert _answer(result) == _answer(reference)
    assert result.nodes < reference.nodes
    assert brute_force_opt(thirds) == reference_brute_force(thirds)


@st.composite
def fractional_family_instances(draw):
    """Coverable oracles of every family over n <= 6, weighted from FRACTIONAL_WEIGHTS."""
    n = draw(st.integers(min_value=1, max_value=6))
    full = range(1, n + 1)
    pool = [f for f in draw(family_oracles(n)) if f.mask_covers(f.union_mask(full))]
    assume(pool)
    agents = []
    for i in range(1, draw(st.integers(min_value=1, max_value=3)) + 1):
        picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        weights = [draw(st.sampled_from(FRACTIONAL_WEIGHTS)) for _ in picks]
        agents.append(Agent(id=i, functions=tuple(zip(picks, weights))))
    return Instance(n=n, agents=tuple(agents))


_TABLE3 = OdtTable(rows=((0, 0), (0, 1), (1, 0)))


@settings(max_examples=150, deadline=None)
@given(inst=fractional_family_instances())
# summed in cover-time order this is 1.8; objective sums in function order: 1.8000000000000003
@example(inst=Instance(n=3, agents=(Agent(id=1, functions=tuple(
    (singleton_function(e), w) for e, w in ((1, 0.1), (2, 0.2), (3, 1.1)))),)))
# (1, 2) costs 1.3699999999999999 in function order, (2, 1) costs 1.37; a bound
# summed in cover-time order reads 1.37 for (1, 2) and prunes it
@example(inst=Instance(n=2, agents=(Agent(id=1, functions=(
    (odt_function(_TABLE3, 2), 1.0 / 3.0),
    (coverage_function([(1, 1)], {1: {1}, 2: {1}}), 0.37),
    (odt_function(_TABLE3, 3), 1.0 / 3.0))),)))
def test_brute_force_value_is_the_objective_of_its_permutation(inst):
    result = brute_force_opt(inst)
    assert result.optimal
    assert result.value == objective(inst, result.permutation)  # bit for bit
    orders = itertools.permutations(range(1, inst.n + 1))
    assert result.value == min(objective(inst, p) for p in orders)


def test_instance_rejects_non_set_system_functions():
    class FloatOracle:
        min_nonzero_marginal = 1.0

        def evaluate(self, subset):
            return float(bool(subset))

    with pytest.raises(TypeError, match="FloatOracle is not a SetSystemOracle"):
        Instance(n=1, agents=(Agent(id=1, functions=((FloatOracle(), 1.0),)),))


@st.composite
def any_family_instances(draw):
    """Agents holding oracles of every family, some shared, coverable or not.

    Weights are all integers or all drawn from FRACTIONAL_WEIGHTS, and agent
    ids are a shuffle of 1..k, so agent order and id order differ.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    pool = draw(family_oracles(n))
    weights = st.sampled_from(draw(st.sampled_from([(1.0, 2.0, 3.0), FRACTIONAL_WEIGHTS])))
    ids = draw(st.permutations(range(1, draw(st.integers(min_value=1, max_value=4)) + 1)))
    agents = []
    for i in ids:
        picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        agents.append(Agent(id=i, functions=tuple((f, draw(weights)) for f in picks)))
    return Instance(n=n, agents=tuple(agents))


def reference_bag(inst, ratio, drop_fraction):
    """Balanced adaptive greedy from its definition, on scalar numerators.

    Round p targets the baseline ratio^p * W. An agent lags while its
    remaining weight (that of its functions the prefix leaves below 1)
    exceeds the baseline. A pass freezes the lagging agents and picks, for
    each step, the first element of largest normalized gain summed over the
    frozen agents' uncovered functions, in agent id then function order,
    until the lagging set falls below drop_fraction of the frozen one; the
    next pass freezes what still lags, and a round ends when nothing does.
    The run ends when a round starts with no agent lagging, or no element
    remains; the elements left follow in index order. Returns
    (permutation, Run) with remaining-weight snapshots.
    """
    n = inst.n
    states = [(a.id, f, w) for a in inst.agents for f, w in a.functions]
    by_id = {a.id: a for a in inst.agents}
    chosen: list = []

    def value(f, prefix):
        return f.numerator(f.union_mask(prefix))

    def uncovered():
        return [value(f, chosen) != f.denominator for _, f, _ in states]

    rem = dict.fromkeys((a.id for a in inst.agents), 0)
    for (agent, _, w), open_ in zip(states, uncovered()):
        if open_:
            rem[agent] += w

    def lagging(b):
        return tuple(sorted(i for i, w in rem.items() if w > b))

    def score(e, frozen):
        total = 0.0
        for agent in frozen:
            for f, w in by_id[agent].functions:
                before = value(f, chosen)
                if before == f.denominator:
                    continue
                gain = (value(f, chosen + [e]) - before) / f.denominator
                total += w * gain / (1.0 - before / f.denominator)
        return total

    trace = Run(agents=tuple(rem.items()))
    p = 0
    while len(chosen) < n:
        p += 1
        b = ratio ** p * inst.W
        frozen = lagging(b)
        q = 0
        while frozen:
            q += 1
            rec = PassRecord(round_index=p, pass_index=q, frozen_agents=frozen, baseline=b,
                             prev_baseline=ratio ** (p - 1) * inst.W, start_t=len(chosen) + 1)
            trace.passes.append(rec)
            while True:
                remaining = [e for e in range(1, n + 1) if e not in chosen]
                e = max(remaining, key=lambda x: score(x, frozen))  # the first of equals
                best = score(e, frozen)
                was = uncovered()
                chosen.append(e)
                for (agent, _, w), before, now in zip(states, was, uncovered()):
                    if before and not now:
                        rem[agent] -= w
                active = lagging(b)
                trace.picks.append(PickRecord(t=len(chosen), element=e, round_index=p,
                                              pass_index=q, score=best, active_after=active,
                                              remaining_weights=tuple(rem.values())))
                if len(chosen) == n or len(active) < drop_fraction * len(frozen):
                    break
            rec.end_t = len(chosen)
            frozen = active if len(chosen) < n else ()
        if q == 0:
            break
    tail = tuple(e for e in range(1, n + 1) if e not in chosen)
    return tuple(chosen) + tail, trace


@settings(max_examples=150, deadline=None)
@given(
    inst=st.one_of(any_family_instances(), fractional_family_instances(), tie_prone_instances()),
    ratio=st.sampled_from((0.1, 0.35, 2.0 / 3.0, 0.9)),
    drop_fraction=st.sampled_from((0.5, 0.75, 1.0)),
)
@example(inst=hard_family(9, 0.01), ratio=2.0 / 3.0, drop_fraction=0.75)
@example(inst=random_coverage_instance(8, 3, 3, 2), ratio=0.35, drop_fraction=0.75)
def test_bag_matches_reference(inst, ratio, drop_fraction):
    """The kernel's BAG records what BAG's definition does, pick for pick."""
    perm, trace = balanced_adaptive_greedy(inst, BagConfig(ratio, drop_fraction))
    ref_perm, ref = reference_bag(inst, ratio, drop_fraction)
    assert perm == ref_perm
    assert trace.pick_lines() == ref.pick_lines()
    assert trace.picks == ref.picks
    assert trace.passes == ref.passes


@pytest.mark.parametrize("ratio", (0.1, 0.5, 0.9))
def test_bag_trace_keeps_each_agents_weight_type(ratio):
    """Remaining weights trace as the reference's: ints stay ints, agents in agent order.

    Agent 2 has no function and agent 3's only function is covered at the
    root, so both lag by the int 0; agent 5's weights are ints.
    """
    inst = Instance(n=4, agents=(
        Agent(id=5, functions=((singleton_function(1), 2), (singleton_function(2), 3))),
        Agent(id=2, functions=()),
        Agent(id=3, functions=((coverage_function([], {}), 1.5),)),
        Agent(id=1, functions=((singleton_function(3), 1), (singleton_function(4), 1.25))),
    ))
    perm, trace = balanced_adaptive_greedy(inst, BagConfig(ratio=ratio))
    ref_perm, ref = reference_bag(inst, ratio, BagConfig.drop_fraction)
    assert perm == ref_perm
    assert trace.pick_lines() == ref.pick_lines()
    assert [a for a, _ in trace.agents] == [5, 2, 3, 1]
    assert trace.agents == ref.agents
    assert [type(w) for _, w in trace.agents] == [type(w) for _, w in ref.agents]
    assert [rec.remaining_weights for rec in trace.picks] == [
        rec.remaining_weights for rec in ref.picks]
    lines = [json.loads(line)["remaining_weights"] for line in trace.pick_lines()]
    assert {type(w) for weights in lines for w in weights.values()} == {int, float}


def _stopped_tail_instance():
    """Runs at ratios 0.1-0.95 stop after picking 2, with the 0.01 function covered at 6.

    Picking 2 covers the weight-1 function; the remaining weight 0.01 is
    then at or below the next baseline, so those runs stop, and their
    shared replay of the tail 1, 3, 4, 5, 6 covers the last tracker only
    at its end.
    """
    f = coverage_function([(1, 1)], {2: {1}})
    g = coverage_function([(1, 1), (2, 1), (3, 1)], {3: {1}, 5: {2}, 6: {3}})
    return Instance(n=6, agents=(Agent(id=1, functions=((f, 1.0), (g, 0.01))),))


def _report_bits(report):
    """A CoverReport with every float as its exact hex form."""
    return (report.cover_times, [c.hex() for c in report.agent_costs],
            report.minmax.hex(), report.average.hex())


def _run_report(trace):
    return _report_bits(trace.report)


def _reference_report(inst, perm):
    return _report_bits(cover_report(inst, perm))


@settings(max_examples=150, deadline=None)
@given(
    inst=st.one_of(any_family_instances(), fractional_family_instances(), tie_prone_instances()),
    drop_fraction=st.sampled_from((0.5, 0.75, 1.0)),
)
@example(inst=Instance(n=2, agents=()), drop_fraction=0.75)
@example(inst=Instance(n=2, agents=(Agent(id=1, functions=()),)), drop_fraction=0.75)
@example(inst=hard_family(9, 0.01), drop_fraction=0.75)
@example(inst=_stopped_tail_instance(), drop_fraction=0.75)
def test_run_reports_are_cover_report(inst, drop_fraction):
    """Every BAG run's report is cover_report of its permutation, bit for bit.

    On an instance with some f(U) < 1 (or no agent) both raise the same
    ValueError. Tuning scores its runs by these reports, and the final run
    at the tuned ratio repeats the tuned permutation and its objective.
    """
    runs = _bag_runs(inst, DEFAULT_RATIO_GRID, drop_fraction)
    for run in runs:
        assert _outcome(_run_report, run) == _outcome(_reference_report, inst, run.permutation)
    for ratio in (0.05, 2.0 / 3.0, 0.95):
        perm, trace = balanced_adaptive_greedy(inst, BagConfig(ratio, drop_fraction))
        assert _outcome(_run_report, trace) == _outcome(_reference_report, inst, perm)
    for mode in ("minmax", "average"):
        tuned = _outcome(tune_ratio, inst, DEFAULT_RATIO_GRID, mode)
        if isinstance(tuned, str):
            assert tuned == _outcome(_reference_report, inst, tuple(range(1, inst.n + 1)))
            continue
        ratio, value = tuned
        perm, trace = balanced_adaptive_greedy(inst, BagConfig(ratio=ratio))
        tuned_runs = _bag_runs(inst, DEFAULT_RATIO_GRID, BagConfig.drop_fraction)
        assert perm == tuned_runs[DEFAULT_RATIO_GRID.index(ratio)].permutation
        assert getattr(trace.report, "minmax" if mode == "minmax" else "average") == value


def _mixed_instance():
    """Unsorted agent ids, int weights, an oracle two agents share and an agent without one."""
    shared = coverage_function([(1, 1), (2, 1)], {1: {1}, 3: {2}})
    return Instance(n=3, agents=(
        Agent(id=3, functions=((shared, 2), (singleton_function(2), 1))),
        Agent(id=1, functions=()),
        Agent(id=2, functions=((shared, 3),)),
    ))


@settings(max_examples=150, deadline=None)
@given(inst=st.one_of(any_family_instances(), fractional_family_instances(),
                      tie_prone_instances()))
@example(inst=Instance(n=2, agents=()))
@example(inst=Instance(n=2, agents=(Agent(id=1, functions=()),)))
@example(inst=hard_family(9, 0.01))
@example(inst=_mixed_instance())
# covered at the root: a coverage function without items is constant 1
@example(inst=Instance(n=3, agents=(Agent(id=1, functions=((coverage_function([], {}), 1.0),)),
                                    Agent(id=2, functions=((coverage_function([], {}), 2),)))))
# picking 2 then 4 covers everything, and 1, 3, 5, 6 follow
@example(inst=Instance(n=6, agents=(
    Agent(id=1, functions=((coverage_function([(1, 1), (2, 1)], {1: {1}, 4: {1, 2}}), 1.0),)),
    Agent(id=2, functions=((coverage_function([(1, 2)], {2: {1}, 5: {1}}), 2.0),)))))
def test_greedy_and_ng_reports_are_cover_report(inst):
    """greedy's and NG's own reports are cover_report of their permutations, bit for bit.

    On an instance with some f(U) < 1 (or no agent) both raise the same
    ValueError, and the run still returns the public function's permutation.
    The instance's state table is a walk of agent.functions in agent order.
    """
    walk = [(f, w) for agent in inst.agents for f, w in agent.functions]
    assert list(inst.oracles) == list({id(f): f for f, _ in walk}.values())
    assert inst.state_oracle.dtype == inst.state_offsets.dtype == np.intp
    assert all(inst.oracles[o] is f for o, (f, _) in zip(inst.state_oracle.tolist(), walk))
    assert inst.state_oracle.size == len(walk)
    assert inst.state_weight.dtype == np.float64
    assert inst.state_weight.tolist() == [float(w) for _, w in walk]
    assert inst.state_offsets.tolist() == list(
        itertools.accumulate((len(agent.functions) for agent in inst.agents), initial=0))
    for normalized, public in ((False, greedy), (True, normalized_greedy)):
        run = _greedy_run(inst, normalized)
        assert run.permutation == public(inst)
        assert (_outcome(_run_report, run)
                == _outcome(_reference_report, inst, run.permutation))


def test_greedy_and_ng_reports_raise_never_covered():
    never = coverage_function([(1, 1), (2, 1)], {1: {1}, 2: {1}})  # no element hits item 2
    inst = Instance(n=2, agents=(Agent(id=1, functions=((never, 1.0),)),))
    for normalized in (False, True):
        run = _greedy_run(inst, normalized)
        assert is_permutation(2, run.permutation)
        with pytest.raises(ValueError, match=f"^{NEVER_COVERED}$"):
            run.report
        with pytest.raises(ValueError, match=f"^{NEVER_COVERED}$"):
            cover_report(inst, run.permutation)


@settings(max_examples=100, deadline=None)
@given(inst=any_family_instances(), data=st.data())
def test_frozen_states_lookup_matches_isin(inst, data):
    """states_of gives the index array np.isin over the id-sorted states gives."""
    kernel = _Kernel(inst)
    by_id = np.argsort(kernel.agent, kind="stable")
    frozen = tuple(sorted(data.draw(st.sets(st.sampled_from([a.id for a in inst.agents]),
                                            min_size=1))))
    expected = by_id[np.isin(kernel.agent[by_id], frozen)]
    got = kernel.states_of(frozen)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
