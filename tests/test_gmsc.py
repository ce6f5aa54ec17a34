"""GMSC relaxation, separation oracle, and randomized rounding."""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subrank import gmsc
from subrank.core import is_permutation, make_instance, objective
from subrank.functions import GmscSet, gmsc_function, singleton_function
from subrank.gmsc import (
    LP_TOL,
    PhaseOutput,
    gmsc_schedule,
    gmsc_schedules,
    gmsc_sets,
    phase_probabilities,
    random_gmsc_instance,
    round_phase,
    solve_lp,
    t_star,
    violated_cuts,
    write_fractional_csv,
)
from subrank.verify import lp_soundness_check, separation_exactness_check, stream_seeding_check


def single_set_instance(n, members, K):
    return make_instance(n, [[(gmsc_function(GmscSet(members=frozenset(members), K=K)), 1.0)]])


class TestSeparationOracle:
    def test_zero_y_never_violates(self):
        gi = single_set_instance(3, {1, 2}, 2)
        x = np.full((3, 3), 1.0 / 3.0)
        y = np.zeros((1, 3))
        assert violated_cuts(gi, x, y) == []

    def test_worked_example(self):
        gi = single_set_instance(2, {1, 2}, 2)
        x = np.array([[0.9, 0.1], [0.1, 0.9]])
        y = np.array([[0.0, 0.5]])
        [(set_id, t, subset, violation)] = violated_cuts(gi, x, y)
        assert (set_id, t, subset) == (1, 2, frozenset({1}))
        assert violation == pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_exhaustive_enumeration(self, seed):
        result = separation_exactness_check(1, seed)
        assert result.passed, result.detail


def loop_violated_cuts(n, sets, x, y, lp_tol):
    """Reference for gmsc.violated_cuts: one Python pass per (set, t) pair."""
    found = []
    prefix = np.cumsum(x, axis=1)
    for set_id, _, s in sets:
        members = sorted(s.members)
        for t in range(1, n + 1):
            y_val = float(y[set_id - 1, t - 1])
            if y_val <= 0.0:
                continue
            mass = {e: (prefix[e - 1, t - 2] if t >= 2 else 0.0) for e in members}
            subset = frozenset(e for e in members if mass[e] > y_val)
            lhs = sum(mass[e] for e in members if e not in subset)
            violation = (s.K - len(subset)) * y_val - lhs
            if violation > lp_tol:
                found.append((set_id, t, subset, violation))
    return found


def assert_cuts_match_loop(inst, x, y, lp_tol):
    assert violated_cuts(inst, x, y, lp_tol) == loop_violated_cuts(
        inst.n, list(gmsc_sets(inst)), x, y, lp_tol)


# grid values make prefix masses tie with y; negatives and zeros probe the y > 0 filter
GRID = st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.5, -0.05])
VALUES = st.one_of(GRID, st.floats(-0.1, 1.0))


@st.composite
def separation_inputs(draw):
    n = draw(st.integers(1, 10))  # numpy's np.sum regroups from 8 terms on
    agents = []
    for _ in range(draw(st.integers(1, 3))):
        sets = []
        for _ in range(draw(st.integers(1, 3))):
            members = draw(st.one_of(st.sets(st.integers(1, n), min_size=1),
                                     st.just(set(range(1, n + 1)))))
            K = draw(st.integers(1, len(members)))
            sets.append((gmsc_function(GmscSet(members=frozenset(members), K=K)), 1.0))
        agents.append(sets)
    inst = make_instance(n, agents)
    n_sets = sum(len(a) for a in agents)
    x = np.array(draw(st.lists(VALUES, min_size=n * n, max_size=n * n))).reshape(n, n)
    y = np.array(draw(st.lists(VALUES, min_size=n_sets * n, max_size=n_sets * n)))
    lp_tol = draw(st.sampled_from([LP_TOL, 1e-12, 0.0, -1.0]))
    return inst, x, y.reshape(n_sets, n), lp_tol


class TestViolatedCutsMatchLoop:
    @settings(max_examples=300, deadline=None)
    @given(args=separation_inputs())
    def test_random_x_and_y(self, args):
        assert_cuts_match_loop(*args)

    @pytest.mark.parametrize("seed", range(4))
    def test_lp_solutions(self, seed):
        inst = random_gmsc_instance(8 + seed, 3, 2, seed)
        sol = solve_lp(inst)
        for lp_tol in (LP_TOL, 0.0, -1.0):  # -1 keeps every (set, t) with y > 0
            assert_cuts_match_loop(inst, sol.x, sol.y, lp_tol)


class TestGmscSets:
    def test_ids_follow_agent_then_function_order(self):
        inst = random_gmsc_instance(6, 2, 3, 7)
        got = list(gmsc_sets(inst))
        assert [(sid, owner) for sid, owner, _ in got] == [
            (1, 1), (2, 1), (3, 1), (4, 2), (5, 2), (6, 2)
        ]
        assert [s for _, _, s in got] == [
            f.gmsc_set for agent in inst.agents for f, _ in agent.functions
        ]

    @pytest.mark.parametrize(
        "function, match",
        [
            ((singleton_function(1), 1.0), "unit-weight gmsc"),
            ((gmsc_function(GmscSet(members=frozenset({1}), K=1)), 2.0), "unit-weight gmsc"),
            ((gmsc_function(GmscSet(members=frozenset({1, 9}), K=1)), 1.0), r"outside 1\.\.3"),
        ],
    )
    def test_rejects_anything_but_unit_weight_gmsc(self, function, match):
        inst = make_instance(3, [[function]])
        with pytest.raises(ValueError, match=match):
            solve_lp(inst)


class TestTStar:
    def test_interior(self):
        assert t_star((0.2, 0.4, 0.6)) == 2

    def test_all_above_half(self):
        assert t_star((1.0, 1.0, 1.0)) == 0

    def test_all_below_half(self):
        assert t_star((0.0, 0.0, 0.0, 0.0)) == 4

    def test_from_solution_map(self):
        y = np.array([[0.9, 0.9], [0.1, 0.8]])
        assert t_star(y[1]) == 1


class TestSolveLp:
    def test_single_element_forced(self):
        gi = single_set_instance(1, {1}, 1)
        sol = solve_lp(gi)
        assert sol.converged
        assert sol.x[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert sol.T_star == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_lower_bounds_integer_optimum(self, seed):
        result = lp_soundness_check(1, seed)
        assert result.passed, result.detail

    @pytest.mark.parametrize("seed", range(6))
    def test_half_sum_lower_bound_per_agent(self, seed):
        result = lp_soundness_check(1, seed)
        assert result.passed, result.detail

    def test_counts_rounds_and_iterations(self, monkeypatch):
        calls = []
        real = gmsc.simplex.solve_dense_lp

        def counted(model):
            calls.append(model)
            return real(model)

        monkeypatch.setattr(gmsc.simplex, "solve_dense_lp", counted)
        sol = solve_lp(random_gmsc_instance(8, 3, 2, 5))
        assert sol.converged and sol.cuts
        assert sol.rounds == len(calls) > 1
        assert len(set(map(id, calls))) == 1  # one model, re-solved every round
        assert sol.iterations > 0

    @pytest.mark.parametrize("cap", [0, 5])
    def test_cut_cap_returns_the_last_relaxation_unconverged(self, cap, monkeypatch):
        gi = random_gmsc_instance(8, 3, 2, 5)
        full = solve_lp(gi)
        assert len(full.cuts) > cap
        monkeypatch.setattr(gmsc, "MAX_CUTS", cap)
        capped = solve_lp(gi)
        assert not capped.converged
        assert len(capped.cuts) <= cap
        assert capped.T_star <= full.T_star + 1e-9  # fewer cuts, a weaker bound

    def test_y_series_monotone(self):
        gi = random_gmsc_instance(6, 2, 2, 3)
        sol = solve_lp(gi)
        for sid, _, _ in gmsc_sets(gi):
            series = sol.y[sid - 1]
            assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))

    def test_final_solution_feasible_everywhere(self):
        gi = random_gmsc_instance(6, 2, 2, 11)
        sol = solve_lp(gi)
        n = gi.n
        assert np.allclose(sol.x.sum(axis=0), 1.0, atol=LP_TOL)
        assert np.allclose(sol.x.sum(axis=1), 1.0, atol=LP_TOL)
        # no remaining violated knapsack-cover constraint
        assert violated_cuts(gi, sol.x, sol.y, LP_TOL) == []
        # agent totals within the bound variable
        for agent_index in range(1, len(gi.agents) + 1):
            total = sum(
                1.0 - sol.y[sid - 1, t - 1]
                for sid, owner, _ in gmsc_sets(gi)
                if owner == agent_index
                for t in range(1, n + 1)
            )
            assert total <= sol.T_star + 1e-6
        # 1000 randomly sampled (set, t, B) triples
        rng = random.Random(0)
        sets = list(gmsc_sets(gi))
        prefix = np.cumsum(sol.x, axis=1)
        for _ in range(1000):
            sid, _, s = sets[rng.randrange(len(sets))]
            t = rng.randint(1, n)
            members = sorted(s.members)
            B = {e for e in members if rng.random() < 0.5}
            lhs = sum(prefix[e - 1, t - 2] if t >= 2 else 0.0 for e in members if e not in B)
            rhs = (s.K - len(B)) * sol.y[sid - 1, t - 1]
            assert lhs >= rhs - LP_TOL

    def test_deterministic(self):
        gi = random_gmsc_instance(5, 2, 2, 4)
        a, b = solve_lp(gi), solve_lp(gi)
        assert a.T_star == b.T_star
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)


class TestRoundPhase:
    def test_probability_caps_at_one(self):
        x = np.zeros((4, 4))
        x[:, 0] = 0.2  # mass 0.2 -> 8 * 0.2 = 1.6, capped
        x[:, 3] = 0.8
        out = round_phase(phase_probabilities(x, 1), 1, 0)
        assert out.picked == (1, 2, 3, 4)

    def test_zero_mass_never_picked(self):
        x = np.zeros((3, 3))
        x[:, 2] = 1.0  # everything scheduled at t=3, no mass before t=2
        out = round_phase(phase_probabilities(x, 1), 1, 12345)
        assert out.picked == ()
        assert not out.emptied

    def test_empirical_pick_rate(self):
        # mass 0.05 -> probability 0.4; estimate over 10,000 seeds
        x = np.zeros((10, 10))
        x[:, 0] = 0.05
        x[:, 9] = 0.95
        probs = phase_probabilities(x, 1)
        hits = sum(len(round_phase(probs, 1, seed).picked) for seed in range(10_000))
        assert hits / 100_000 == pytest.approx(0.4, abs=0.02)

    def test_phase_cap_applies(self):
        assert PhaseOutput(phase=2, picked=(), raw_count=99).cap == 64
        assert PhaseOutput(phase=2, picked=(), raw_count=65).emptied
        assert not PhaseOutput(phase=2, picked=tuple(range(1, 65)), raw_count=64).emptied

    def test_picks_past_the_cap_empty_the_output(self):
        out = round_phase(np.ones(40), 1, 0)  # 40 certain picks, cap 32
        assert (out.picked, out.raw_count, out.emptied) == ((), 40, True)


class TestSchedule:
    def test_valid_full_permutation(self):
        gi = random_gmsc_instance(8, 2, 2, 0)
        sol = solve_lp(gi)
        for seed in range(10):
            perm, _ = gmsc_schedule(gi, seed, sol)
            assert is_permutation(gi.n, perm)

    def test_single_agent_clamps_repetitions(self):
        gi = random_gmsc_instance(4, 1, 1, 2)
        sol = solve_lp(gi)
        perm, _ = gmsc_schedule(gi, 0, sol)
        assert is_permutation(gi.n, perm)

    def test_single_element_instance(self):
        gi = single_set_instance(1, {1}, 1)
        assert gmsc_schedule(gi, 0, solve_lp(gi)) == ((1,), [])

    def test_idempotent_under_seed(self):
        gi = random_gmsc_instance(8, 2, 2, 1)
        sol = solve_lp(gi)
        assert gmsc_schedule(gi, 5, sol) == gmsc_schedule(gi, 5, sol)

    def test_phase_outputs_respect_caps(self):
        gi = random_gmsc_instance(8, 2, 2, 3)
        sol = solve_lp(gi)
        for seed in range(10):
            _, phases = gmsc_schedule(gi, seed, sol)
            assert len(phases) == math.ceil(math.log2(gi.n)) * 2 * math.ceil(math.log2(len(gi.agents)))
            for ph in phases:
                assert ph.emptied or len(ph.picked) <= ph.cap


@functools.lru_cache(maxsize=None)
def solved_gmsc_instance(n, k, m, s):
    inst = random_gmsc_instance(n, k, m, s)
    return inst, solve_lp(inst)


def reference_schedule(inst, sol, seed):
    """gmsc_schedule from round_phase, one (phase, repetition) stream per call."""
    n, k = inst.n, len(inst.agents)
    reps = 2 * math.ceil(math.log2(k)) if k > 1 else 1
    phases = math.ceil(math.log2(n)) if n > 1 else 0
    outputs = [
        round_phase(phase_probabilities(sol.x, phase), phase,
                    np.random.SeedSequence(entropy=seed, spawn_key=(phase, rep)))
        for phase in range(1, phases + 1) for rep in range(1, reps + 1)
    ]
    order = list(dict.fromkeys(e for out in outputs for e in out.picked))
    order += [e for e in range(1, n + 1) if e not in set(order)]
    return tuple(order), outputs


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([1, 2, 5, 16]), k=st.sampled_from([1, 2, 4, 8]),
       m=st.integers(1, 2), instance_seed=st.integers(0, 2), seed=st.integers(0, 2**130))
# one seed per entropy width, 1 to 5 words, at both ends of the widths
@example(n=16, k=4, m=2, instance_seed=0, seed=0)
@example(n=16, k=4, m=2, instance_seed=1, seed=2**32 - 1)
@example(n=16, k=4, m=2, instance_seed=2, seed=2**32)
@example(n=5, k=8, m=1, instance_seed=0, seed=2**96 - 1)
@example(n=16, k=2, m=2, instance_seed=1, seed=2**128 - 1)
@example(n=16, k=8, m=2, instance_seed=2, seed=2**128)
@example(n=5, k=4, m=2, instance_seed=1, seed=2**130)
def test_schedule_matches_per_phase_reference(n, k, m, instance_seed, seed):
    inst, sol = solved_gmsc_instance(n, k, m, instance_seed)
    assert gmsc_schedule(inst, seed, sol) == reference_schedule(inst, sol, seed)


#: seeds of every entropy width, 1 to 6 words, mixed so that chunks hold several widths
MIXED_SEEDS = [0, 2**130 + 3, 7, 2**32, 2**64 - 1, 2**96 + 11, 2**160 + 1, 2**32 - 1, 620]


class TestSchedules:
    @pytest.mark.parametrize("n, k, m, s",
                             [(16, 4, 2, 0), (5, 8, 1, 1), (2, 1, 1, 0), (1, 2, 1, 0)])
    def test_batch_matches_per_phase_reference(self, n, k, m, s):
        inst, sol = solved_gmsc_instance(n, k, m, s)
        assert list(gmsc_schedules(inst, MIXED_SEEDS, sol)) == [
            reference_schedule(inst, sol, seed)[0] for seed in MIXED_SEEDS]

    def test_one_seed_chunks_equal_unchunked(self, monkeypatch):
        inst, sol = solved_gmsc_instance(16, 4, 2, 0)
        whole = list(gmsc_schedules(inst, MIXED_SEEDS, sol))
        monkeypatch.setattr(gmsc, "_DRAW_CELLS", 1)
        assert list(gmsc_schedules(inst, MIXED_SEEDS, sol)) == whole

    @pytest.mark.parametrize("n", [32, 33])
    def test_picks_at_the_cap_are_kept_and_past_it_emptied(self, n):
        agent = [(gmsc_function(GmscSet(members=frozenset({1}), K=1)), 1.0)]
        inst = make_instance(n, [agent, agent])
        x = np.zeros((n, n))
        x[:, 0], x[:, 1] = 1 / 8, 7 / 8  # every element is certain in phase 1, whose cap is 32
        sol = gmsc.FractionalSolution(x=x, y=np.zeros((2, n)), T_star=1.0)
        perm, phases = gmsc_schedule(inst, 3, sol)
        assert (perm, phases) == reference_schedule(inst, sol, 3)
        assert [(p.raw_count, p.emptied) for p in phases[:2]] == [(n, n > 32)] * 2

    def test_seeds_are_read_lazily(self, monkeypatch):
        inst, sol = solved_gmsc_instance(16, 4, 2, 0)
        monkeypatch.setattr(gmsc, "_DRAW_CELLS", 1)
        endless = gmsc_schedules(inst, itertools.count(), sol)
        assert list(itertools.islice(endless, 3)) == [
            gmsc_schedule(inst, seed, sol)[0] for seed in range(3)]

    def test_negative_seed_raises_numpys_error(self):
        with pytest.raises(ValueError) as numpy_error:
            np.random.SeedSequence(entropy=-1, spawn_key=(1, 1))
        inst, sol = solved_gmsc_instance(5, 2, 1, 0)
        for call in (lambda: gmsc_schedule(inst, -1, sol),
                     lambda: list(gmsc_schedules(inst, [3, -2**40], sol))):
            with pytest.raises(ValueError) as ours:
                call()
            assert str(ours.value) == str(numpy_error.value)


class TestStreamSeedingCheck:
    def test_passes_on_its_own_counts(self):
        result = stream_seeding_check((1, 2**64 - 1, 2**96, 2**160 + 5), (3, 17), 2, 3)
        assert result.passed, result.detail

    @pytest.mark.parametrize("target", ["stream_words", "stream_draws"])
    def test_fails_when_the_bulk_path_drifts(self, target, monkeypatch):
        real = getattr(gmsc, target)

        def drifted(*args):
            out = real(*args)
            out[-1, -1, -1] += 1
            return out

        monkeypatch.setattr(gmsc, target, drifted)
        result = stream_seeding_check()
        assert not result.passed and "differ" in result.detail


class TestSerialization:
    def test_fractional_csv_dump(self, tmp_path):
        gi = single_set_instance(2, {1, 2}, 1)
        sol = solve_lp(gi)
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        write_fractional_csv(sol, str(x_path), str(y_path))
        x_lines = x_path.read_text().splitlines()
        y_lines = y_path.read_text().splitlines()
        assert x_lines[0] == "e,t,x"
        assert y_lines[0] == "set_id,t,y"
        assert len(x_lines) == 1 + 4  # 2x2 grid
        assert len(y_lines) == 1 + 2  # one set, two times
        x_values = [float(line.split(",")[2]) for line in x_lines[1:]]
        y_values = [float(line.split(",")[2]) for line in y_lines[1:]]
        assert x_values == [sol.x[e, t] for e in range(2) for t in range(2)]
        assert y_values == [sol.y[0, t] for t in range(2)]


def test_gmsc_objective_matches_cover_semantics():
    inst = single_set_instance(4, {1, 2, 3}, 2)
    # K=2 of {1,2,3}: second member arrives at position 3 below
    assert objective(inst, (1, 4, 2, 3), "minmax") == 3.0
    assert objective(inst, (2, 3, 1, 4), "minmax") == 2.0
