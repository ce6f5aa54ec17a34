"""Ranking algorithms: random, greedy, normalized greedy, balanced
adaptive greedy, and an exact branch-and-bound oracle.

Greedy, normalized greedy (NG) and balanced adaptive greedy (BAG) share one
pick kernel, ``_pick``: a candidate scores the sum of weight * gain /
residual over the uncovered functions in play, with residual 1 - f(S) for
NG and BAG and exactly 1 for greedy; BAG scores only a frozen set of
lagging agents. Ties go to the smallest element index. Every function's
covered bitmask is memoized, so a step costs one exact marginal evaluation
per (candidate, function) pair. All algorithms are deterministic given
their inputs (and seed, where one exists).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Optional

from subrank.core import Instance, objective


class _FnState:
    """Incremental tracker of one function's value along the chosen prefix."""

    __slots__ = ("agent", "oracle", "weight", "mask", "value", "covered")

    def __init__(self, agent: int, oracle, weight: float):
        self.agent = agent
        self.oracle = oracle
        self.weight = weight
        self.mask = 0
        self.value = oracle.numerator(0) / oracle.denominator
        self.covered = oracle.mask_covers(0)

    def gain(self, e: int) -> float:
        oracle = self.oracle
        return (
            oracle.numerator(self.mask | oracle.element_mask(e))
            - oracle.numerator(self.mask)
        ) / oracle.denominator


def _states(inst: Instance) -> list:
    """One tracker per function, in agent then function order."""
    return [_FnState(agent.id, f, w) for agent in inst.agents for f, w in agent.functions]


def _pick(remaining: list, states: list, normalized: bool) -> tuple:
    """(element, score) maximizing the summed weighted gain over uncovered states.

    Each uncovered state adds weight * gain / residual, with residual
    1 - value when normalized and exactly 1.0 otherwise. remaining is kept
    ascending, so the first maximum is the smallest-index one.
    """
    live = [(s, 1.0 - s.value if normalized else 1.0) for s in states if not s.covered]
    best_e, best_score = None, -math.inf
    for e in remaining:
        score = 0.0
        for s, residual in live:
            score += s.weight * s.gain(e) / residual
        if score > best_score:
            best_e, best_score = e, score
    return best_e, best_score


def _advance(states: list, e: int) -> list:
    """Add e to every uncovered state; return the states it newly covers."""
    newly = []
    for s in states:
        if not s.covered:
            oracle = s.oracle
            s.mask |= oracle.element_mask(e)
            s.value = oracle.numerator(s.mask) / oracle.denominator
            s.covered = oracle.mask_covers(s.mask)
            if s.covered:
                newly.append(s)
    return newly


def random_order(inst: Instance, seed: int) -> tuple:
    """Uniform seeded shuffle of the ground set."""
    order = list(range(1, inst.n + 1))
    random.Random(seed).shuffle(order)
    return tuple(order)


def _greedy_order(inst: Instance, normalized: bool) -> tuple:
    """Repeated _pick over every function of every agent."""
    states = _states(inst)
    remaining = list(range(1, inst.n + 1))
    chosen = []
    while remaining:
        e, _ = _pick(remaining, states, normalized)
        chosen.append(e)
        remaining.remove(e)
        _advance(states, e)
    return tuple(chosen)


def greedy(inst: Instance) -> tuple:
    """Pick the element with maximum total weighted marginal gain each step."""
    return _greedy_order(inst, normalized=False)


def normalized_greedy(inst: Instance) -> tuple:
    """Greedy on gains renormalized by each function's residual to coverage.

    All functions of all agents are stacked into one pool; covered functions
    contribute nothing.
    """
    return _greedy_order(inst, normalized=True)


@dataclass(frozen=True)
class BagConfig:
    """Knobs of balanced adaptive greedy.

    ratio is the geometric decay of the per-round weight baseline;
    drop_fraction is how far the lagging-agent set must shrink, relative to
    its frozen snapshot, before the snapshot is retaken. trace additionally
    records per-pick remaining-weight snapshots.
    """

    ratio: float = 2.0 / 3.0
    drop_fraction: float = 3.0 / 4.0
    trace: bool = False

    def __post_init__(self):
        if not 0 < self.ratio < 1:
            raise ValueError(f"ratio {self.ratio} outside (0, 1)")
        if not 0 < self.drop_fraction <= 1:
            raise ValueError(f"drop_fraction {self.drop_fraction} outside (0, 1]")


@dataclass
class PickRecord:
    t: int
    element: int
    round_index: int  # outer iteration
    pass_index: int  # inner iteration within the round
    score: float
    active_after: tuple  # lagging agents recomputed after this pick
    remaining_weights: Optional[dict] = None


@dataclass
class PassRecord:
    round_index: int
    pass_index: int
    frozen_agents: tuple
    baseline: float
    prev_baseline: float
    start_t: int
    end_t: int = 0  # filled when the pass closes


@dataclass
class RunTrace:
    """What balanced adaptive greedy did and when."""

    picks: list = field(default_factory=list)
    passes: list = field(default_factory=list)

    def pick_lines(self, include_details: bool = True) -> list:
        lines = []
        for rec in self.picks:
            doc = {
                "t": rec.t,
                "element": rec.element,
                "p": rec.round_index,
                "q": rec.pass_index,
            }
            if include_details:
                doc["score"] = rec.score
                if rec.remaining_weights is not None:
                    doc["remaining_weights"] = rec.remaining_weights
            lines.append(json.dumps(doc, sort_keys=True))
        return lines


def write_trace_jsonl(trace: RunTrace, path: str, include_details: bool = True) -> None:
    with open(path, "w") as fh:
        for line in trace.pick_lines(include_details):
            fh.write(line + "\n")


def balanced_adaptive_greedy(inst: Instance, cfg: Optional[BagConfig] = None):
    """Normalized greedy restricted to a frozen snapshot of lagging agents.

    Rounds p = 1, 2, ... target the baseline ratio^p * W on every agent's
    uncovered weight. Within a round, the lagging set is frozen; picks
    maximize the renormalized gain summed over the frozen agents only, and
    the snapshot is retaken once the live lagging set shrinks below
    drop_fraction of it. Elements left over once every agent meets the
    current baseline are appended in index order.

    Returns (permutation, trace).
    """
    cfg = cfg or BagConfig()
    states = _states(inst)
    by_agent_id = sorted(states, key=lambda s: s.agent)  # stable: function order kept
    agent_ids = [a.id for a in inst.agents]
    rem_weight = dict.fromkeys(agent_ids, 0)
    for s in states:
        if not s.covered:
            rem_weight[s.agent] += s.weight
    remaining = list(range(1, inst.n + 1))
    chosen = []
    trace = RunTrace()
    t = 1
    p = 1

    def baseline(power: int) -> float:
        return (cfg.ratio ** power) * inst.W

    def lagging(b: float) -> set:
        return {i for i in agent_ids if rem_weight[i] > b}

    while lagging(baseline(p)):
        b = baseline(p)
        q = 1
        active = lagging(b)
        while active:
            frozen = tuple(sorted(active))
            pass_rec = PassRecord(
                round_index=p,
                pass_index=q,
                frozen_agents=frozen,
                baseline=b,
                prev_baseline=baseline(p - 1),
                start_t=t,
            )
            trace.passes.append(pass_rec)
            frozen_states = [s for s in by_agent_id if s.agent in active]
            while len(active) >= cfg.drop_fraction * len(frozen):
                if not remaining:  # only reachable when some f(U) < 1
                    break
                best_e, best_score = _pick(remaining, frozen_states, True)
                chosen.append(best_e)
                remaining.remove(best_e)
                for s in _advance(states, best_e):
                    rem_weight[s.agent] -= s.weight
                active = lagging(b)
                trace.picks.append(
                    PickRecord(
                        t=t,
                        element=best_e,
                        round_index=p,
                        pass_index=q,
                        score=best_score,
                        active_after=tuple(sorted(active)),
                        remaining_weights=dict(rem_weight) if cfg.trace else None,
                    )
                )
                t += 1
            pass_rec.end_t = t - 1
            q += 1
        p += 1

    for e in remaining:
        chosen.append(e)
    return tuple(chosen), trace


@dataclass(frozen=True)
class BruteForceResult:
    permutation: tuple
    value: float
    optimal: bool
    nodes: int


def brute_force_opt(inst: Instance, node_limit: int = 2_000_000) -> BruteForceResult:
    """Exact minimum of the max weighted cover time, by branch and bound.

    Depth-first search over permutation prefixes seeded with the normalized
    greedy incumbent. A node is pruned when max over agents of
    (cost so far + (depth + 1) * uncovered weight) reaches the incumbent;
    elements with zero gain for every uncovered function are postponed to
    the end, which never hurts by submodularity. Deterministic; when
    node_limit is exceeded the best incumbent is returned flagged
    non-optimal. Intended for n <= 10.
    """
    ng = normalized_greedy(inst)
    incumbent = {"perm": ng, "value": objective(inst, ng, "minmax")}
    states = _states(inst)
    agent_ids = [a.id for a in inst.agents]
    n = inst.n
    state = {"nodes": 0, "limit_hit": False}
    partial = {i: 0.0 for i in agent_ids}
    chosen: list = []
    in_use = [False] * (n + 1)

    def bound(depth: int) -> float:
        # every still-uncovered function has cover time >= depth + 1
        uncovered = dict.fromkeys(agent_ids, 0)
        for s in states:
            if not s.covered:
                uncovered[s.agent] += s.weight
        return max(partial[i] + (depth + 1) * uncovered[i] for i in agent_ids)

    def close_leaf():
        value = max(partial.values())
        if value < incumbent["value"]:
            tail = tuple(e for e in range(1, n + 1) if not in_use[e])
            incumbent["value"] = value
            incumbent["perm"] = tuple(chosen) + tail

    def search(depth: int):
        state["nodes"] += 1
        if state["nodes"] > node_limit:
            state["limit_hit"] = True
            return
        if all(s.covered for s in states):
            close_leaf()
            return
        if bound(depth) >= incumbent["value"]:
            return
        for e in range(1, n + 1):
            if in_use[e] or state["limit_hit"]:
                continue
            if not any(not s.covered and s.gain(e) > 0 for s in states):
                continue  # zero gain now means zero gain forever; leave for the tail
            snapshot = [(s, s.mask, s.value, s.covered) for s in states]
            saved_partial = dict(partial)
            for s in _advance(states, e):
                partial[s.agent] += s.weight * (depth + 1)
            in_use[e] = True
            chosen.append(e)
            search(depth + 1)
            chosen.pop()
            in_use[e] = False
            partial.update(saved_partial)
            for s, mask, value, covered in snapshot:
                s.mask, s.value, s.covered = mask, value, covered

    search(0)
    return BruteForceResult(
        permutation=incumbent["perm"],
        value=incumbent["value"],
        optimal=not state["limit_hit"],
        nodes=state["nodes"],
    )
