"""Cover-time semantics, objectives, and instance validation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subrank.core import (
    Agent,
    Instance,
    agent_cost,
    cover_report,
    cover_time,
    errors_only,
    is_permutation,
    objective,
    validate,
)
from subrank.functions import (
    coverage_function,
    hard_family,
    random_coverage_instance,
    singleton_function,
)
from subrank.algorithms import balanced_adaptive_greedy, normalized_greedy
from subrank.harness import ResultRow, ResultTable
from subrank import core, harness, verify


def two_item_coverage():
    # e1 covers item a, e2 covers item b, equal weights
    return coverage_function([(1, 1), (2, 1)], {1: {1}, 2: {2}})


class TestCoverTime:
    def test_already_covered_function_costs_zero(self):
        always_one = coverage_function([], {})
        assert cover_time(always_one, (2, 1)) == 0
        assert cover_time(always_one, (1, 2)) == 0

    def test_two_item_coverage_completes_at_two(self):
        assert cover_time(two_item_coverage(), (1, 2)) == 2
        assert cover_time(two_item_coverage(), (2, 1)) == 2

    def test_hard_family_singleton_position(self):
        inst = hard_family(4, 0.01)
        f_e5 = inst.agents[3].functions[0][0]  # agent 4's oracle for element 5
        assert cover_time(f_e5, (4, 1, 2, 3, 5, 6)) == 5

    def test_never_covered_raises(self):
        f = two_item_coverage()
        with pytest.raises(ValueError):
            cover_time(f, (1,))  # element 2 missing, item b never covered


class TestAgentCost:
    def test_single_unit_weight_function(self):
        inst = Instance(n=3, agents=(Agent(id=1, functions=((singleton_function(3), 1.0),)),))
        assert agent_cost(inst, 1, (1, 2, 3)) == 3.0

    def test_hard_family_agent4(self):
        inst = hard_family(4, 0.01)
        assert agent_cost(inst, 4, (4, 1, 2, 3, 5, 6)) == 11.0

    def test_hard_family_agent1(self):
        inst = hard_family(4, 0.01)
        assert agent_cost(inst, 1, (4, 1, 2, 3, 5, 6)) == pytest.approx(3.01, abs=1e-12)

    def test_unknown_agent_id(self):
        inst = hard_family(4, 0.01)
        with pytest.raises(KeyError):
            agent_cost(inst, 99, (4, 1, 2, 3, 5, 6))


class TestObjective:
    def test_hard_family_minmax(self):
        inst = hard_family(4, 0.01)
        assert objective(inst, (4, 1, 2, 3, 5, 6), "minmax") == 11.0

    def test_hard_family_witness(self):
        inst = hard_family(4, 0.01)
        assert objective(inst, (4, 5, 6, 1, 2, 3), "minmax") == pytest.approx(7.05, abs=1e-12)

    def test_covered_single_agent_is_zero(self):
        inst = Instance(
            n=2, agents=(Agent(id=1, functions=((coverage_function([], {}), 1.0),)),)
        )
        assert objective(inst, (1, 2), "minmax") == 0.0

    def test_empty_agents_rejected(self):
        inst = Instance(n=2, agents=())
        with pytest.raises(ValueError):
            objective(inst, (1, 2))

    def test_unknown_mode_rejected(self):
        inst = hard_family(4, 0.01)
        with pytest.raises(ValueError):
            objective(inst, (4, 1, 2, 3, 5, 6), "median")

    @pytest.mark.parametrize("pi", [(1, 2, 3, 4, 5, 6, 6), (1, 2, 3, 4, 5, 6, 99)])
    def test_non_permutation_rejected(self, pi):
        inst = hard_family(4, 0.01)
        with pytest.raises(ValueError, match="not a permutation"):
            objective(inst, pi)
        with pytest.raises(ValueError, match="not a permutation"):
            cover_report(inst, pi)
        with pytest.raises(ValueError, match="not a permutation"):
            agent_cost(inst, 4, pi)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_minmax_dominates_average(seed):
    rng = random.Random(seed)
    inst = random_coverage_instance(6, rng.randint(1, 3), rng.randint(1, 3), seed)
    order = list(range(1, 7))
    rng.shuffle(order)
    assert objective(inst, order, "minmax") >= objective(inst, order, "average") >= 0.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cover_time_stable_under_extension(seed):
    rng = random.Random(seed)
    inst = random_coverage_instance(7, 2, 2, seed)
    order = list(range(1, 8))
    rng.shuffle(order)
    for agent in inst.agents:
        for f, _ in agent.functions:
            t = cover_time(f, order)
            if t < len(order):
                assert cover_time(f, order[: max(t, 1)]) == t  # truncation keeps it
            assert cover_time(f, order + [99]) == t  # appending never increases


def test_tail_exchange_preserves_objectives():
    result = verify.tail_exchange_check(30, 0)  # seeds 0-29, at least 5 swaps
    assert result.passed, result.detail


def test_normalized_gain_chain_bound():
    result = verify.chain_bound_check(100, 424242)  # 100 chains per family
    assert result.passed, result.detail


class TestValidate:
    def test_hard9_is_clean(self):
        assert validate(hard_family(9, 0.01)) == []

    def test_zero_weight_flagged(self):
        inst = Instance(
            n=2, agents=(Agent(id=1, functions=((singleton_function(1), 0.0),)),)
        )
        messages = [v.message for v in validate(inst)]
        assert any("weight < 1" in m for m in messages)

    def test_partial_coverage_flagged(self):
        # item 2 is hit by no element, so f(U) = 1/3
        f = coverage_function([(1, 1), (2, 2)], {1: {1}, 2: set()})
        inst = Instance(n=2, agents=(Agent(id=1, functions=((f, 1.0),)),))
        messages = [v.message for v in errors_only(validate(inst))]
        assert any("f(U) != 1" in m for m in messages)

    @pytest.mark.parametrize("n", [2, 3])
    def test_unhit_item_message_keeps_its_value_text(self, n):
        # the item of weight 2 is hit by no element, whatever n is
        f = coverage_function([(1, 1), (2, 2)], {1: {1}})
        inst = Instance(n=n, agents=(Agent(id=1, functions=((f, 1.0),)),))
        assert [str(v) for v in validate(inst)] == [
            "[error] agent 1 function 1: f(U) != 1 (f(U)=0.3333333333333333)"
        ]

    def test_never_raises_on_empty_agent(self):
        inst = Instance(n=1, agents=(Agent(id=1, functions=()),))
        assert validate(inst)  # reported, not raised


def test_cover_report_invariants():
    inst = hard_family(9, 0.01)
    perm = normalized_greedy(inst)
    report = cover_report(inst, perm)
    assert report.minmax >= report.average
    assert all(t <= inst.n for times in report.cover_times for t in times)
    assert report.minmax == objective(inst, perm, "minmax")


def test_is_permutation():
    assert is_permutation(3, (2, 3, 1))
    assert not is_permutation(3, (1, 2))
    assert not is_permutation(3, (1, 2, 2))


def test_instance_derives_epsilon_and_weight():
    inst = hard_family(9, 0.01)
    assert inst.W == 3.0
    assert inst.epsilon == 1.0
    assert inst.agent_by_id(9).id == 9


def test_sealed_blocks_of_other_heights_keep_their_rows():
    """Adjacent oracles sealed by instances of other sizes are copied in as blocks of their own."""
    short = coverage_function([(1, 1), (2, 1)], {1: {1, 2}})
    tall = coverage_function([(1, 1)], {3: {1}})
    Instance(n=1, agents=(Agent(id=1, functions=((short, 1.0),)),))  # a block of one row
    Instance(n=3, agents=(Agent(id=1, functions=((tall, 1.0),)),))  # a block of three
    functions = ((short, 1.0), (tall, 1.0), (singleton_function(2), 1.0))
    inst = Instance(n=3, agents=(Agent(id=1, functions=functions),))
    assert inst.hits.tolist() == [[1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


def test_duplicate_agent_ids_rejected():
    # objective looked agents up by id while cover_report walked them in
    # order, so the two disagreed (1.0 against 2.0 on this instance)
    agents = (
        Agent(id=1, functions=((singleton_function(1), 1.0),)),
        Agent(id=1, functions=((singleton_function(2), 1.0),)),
    )
    with pytest.raises(ValueError, match="duplicate agent id 1"):
        Instance(n=2, agents=agents)


def test_denominator_above_2_53_rejected():
    def inst(weight):
        f = coverage_function([(1, weight)], {1: {1}})
        return Instance(n=1, agents=(Agent(id=1, functions=((f, 1.0),)),))

    assert inst(2**53).n == 1
    with pytest.raises(ValueError, match=r"exceeds 2\*\*53"):
        inst(2**53 + 1)


def reference_first_error(agents):
    """The first error of Instance's checks, each function checked at every appearance."""
    seen = set()
    for agent in agents:
        if agent.id in seen:
            return ValueError, f"duplicate agent id {agent.id}"
        seen.add(agent.id)
        for f, _ in agent.functions:
            if not isinstance(f, core.SetSystemOracle):
                return TypeError, f"agent {agent.id}: {type(f).__name__} is not a SetSystemOracle"
            if f.denominator > core.MAX_DENOMINATOR:
                return ValueError, f"agent {agent.id}: denominator {f.denominator} exceeds 2**53"
    return None


class NotAnOracle:
    pass


# two good oracles, one object of the wrong type and one oversized denominator
ORACLE_POOL = (singleton_function(1), two_item_coverage(), NotAnOracle(),
               coverage_function([(1, 2**53 + 1)], {1: {1}}))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.lists(st.sampled_from(ORACLE_POOL), max_size=3)),
                max_size=4))
def test_instance_raises_the_first_error_of_checking_every_function(drawn):
    """Checking each oracle only where it first appears raises the same first error.

    Bad oracles are shared between agents and follow duplicate agent ids.
    """
    agents = tuple(Agent(id=i, functions=tuple((f, 1.0) for f in fs)) for i, fs in drawn)
    expected = reference_first_error(agents)
    if expected is None:
        inst = Instance(n=2, agents=agents)
        assert inst.oracles == tuple({id(f): f for a in agents for f, _ in a.functions}.values())
        return
    with pytest.raises(expected[0]) as err:
        Instance(n=2, agents=agents)
    assert str(err.value) == expected[1]


@pytest.mark.parametrize("ids, functions, expected", [
    # a bad oracle shared by two agents is reported for the first
    ((1, 2), ((0, 2), (2,)), "agent 1: NotAnOracle is not a SetSystemOracle"),
    ((1, 2), ((0,), (0, 3)), "agent 2: denominator 9007199254740993 exceeds 2**53"),
    ((2, 1), ((3, 2), (2, 3)), "agent 2: denominator 9007199254740993 exceeds 2**53"),
    # a duplicate id is reported before the bad oracles its agent holds
    ((1, 1), ((0,), (2,)), "duplicate agent id 1"),
    ((1, 2, 1), ((0,), (1,), (3, 2)), "duplicate agent id 1"),
    ((1, 1), ((2,), (0,)), "agent 1: NotAnOracle is not a SetSystemOracle"),
])
def test_instance_first_error_cases(ids, functions, expected):
    agents = tuple(Agent(id=i, functions=tuple((ORACLE_POOL[j], 1.0) for j in fs))
                   for i, fs in zip(ids, functions))
    assert reference_first_error(agents)[1] == expected
    with pytest.raises((TypeError, ValueError)) as err:
        Instance(n=2, agents=agents)
    assert str(err.value) == expected


def compensated_sum(values, start=0):
    """A float sum rounded once, as CPython 3.12's builtin sum nearly is."""
    return start + math.fsum(values)


# agent i holds singleton(e) at weight FRACTIONAL_WEIGHTS[i - 1][e - 1]; under the
# identity order every agent's cost, the mean cost and W round differently
# when summed left to right than when summed exactly
FRACTIONAL_WEIGHTS = ((1.1, 0.3, 0.7, 1.1, 0.1, 0.2), (0.2, 0.1, 1.1, 0.7, 0.1, 0.1),
                      (0.1, 1.1, 0.7, 0.3, 0.7, 0.1))


def test_float_totals_add_left_to_right_whatever_builtin_sum_does(monkeypatch):
    def outputs():
        inst = Instance(n=6, agents=tuple(
            Agent(id=i, functions=tuple((singleton_function(e), w) for e, w in enumerate(ws, 1)))
            for i, ws in enumerate(FRACTIONAL_WEIGHTS, 1)))
        rows = [ResultRow("ng", 3, 6, None, seed, v, v, v, v)
                for seed, v in enumerate((0.1, 0.2, 0.3))]
        return (cover_report(inst, tuple(range(1, 7))), inst.W,
                balanced_adaptive_greedy(inst)[0], ResultTable(rows).summary())

    report, W, _, summary = expected = outputs()
    for ws, cost in zip(FRACTIONAL_WEIGHTS, report.agent_costs):
        assert compensated_sum(w * t for t, w in enumerate(ws, 1)) != cost
    assert compensated_sum(report.agent_costs) / 3 != report.average
    assert max(compensated_sum(ws) for ws in FRACTIONAL_WEIGHTS) != W
    assert compensated_sum((0.1, 0.2, 0.3)) / 3 != summary[0]["objective_minmax"]
    monkeypatch.setattr(core, "sum", compensated_sum, raising=False)
    monkeypatch.setattr(harness, "sum", compensated_sum, raising=False)
    assert outputs() == expected
