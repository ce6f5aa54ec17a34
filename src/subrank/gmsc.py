"""Generalized min-sum set cover over multiple agents.

The module works on an ``Instance`` whose functions are all unit-weight
gmsc functions: each one is a set with a coverage requirement K, covered
once K of its members have appeared in the permutation, and an agent pays
the sum of its sets' cover times. The fractional relaxation uses assignment
variables x[e,t], coverage indicators y[set,t], and a bound variable T
minimized directly; the exponential knapsack-cover family is generated
lazily through the separation oracle and the LP re-solved until no
constraint is violated. The LP is one sparse HiGHS model (see
``simplex``) that grows by the new cuts each round and is re-solved from
its last basis. Rounding runs doubling-horizon phases, picking
each element independently with probability min(1, 8 * prefix mass) and
interleaving independent repetitions so no agent is left behind.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from subrank.core import Instance, make_instance
from subrank.functions import GmscFunction, GmscSet, gmsc_function
from subrank import simplex

LP_TOL = 1e-7
MAX_CUTS = 10_000
PICK_SCALE = 8.0  # rounding probability is min(1, PICK_SCALE * prefix mass)
PHASE_CAP_SCALE = 16  # a phase keeping more than 16 * 2^l picks is emptied


def gmsc_sets(inst: Instance):
    """Yield (set_id, agent_index, GmscSet) with 1-based ids in agent order.

    Raises ValueError unless every function is a unit-weight gmsc function
    whose members lie in 1..n.
    """
    set_id = 0
    for agent_index, agent in enumerate(inst.agents, start=1):
        for j, (oracle, weight) in enumerate(agent.functions, start=1):
            if not isinstance(oracle, GmscFunction) or weight != 1.0:
                raise ValueError(
                    f"agent {agent_index} function {j}: expected a unit-weight gmsc "
                    f"function, got {type(oracle).__name__} with weight {weight}"
                )
            s = oracle.gmsc_set
            if not all(1 <= e <= inst.n for e in s.members):
                raise ValueError(
                    f"agent {agent_index} function {j}: set member outside 1..{inst.n}"
                )
            set_id += 1
            yield set_id, agent_index, s


def random_gmsc_instance(n: int, k: int, m: int, seed: int) -> Instance:
    """Seeded generator of small set systems for tests and benchmarks.

    Every agent holds m unit-weight gmsc functions.
    """
    rng = random.Random(seed)
    agents = []
    for _ in range(k):
        sets = []
        for _ in range(m):
            size = rng.randint(1, min(n, 4))
            members = frozenset(rng.sample(range(1, n + 1), size))
            sets.append(GmscSet(members=members, K=rng.randint(1, len(members))))
        agents.append([(gmsc_function(s), 1.0) for s in sets])
    return make_instance(n, agents)


@dataclass(frozen=True)
class ViolatedConstraint:
    set_id: int
    time: int
    subset: frozenset  # the B achieving the largest violation
    violation: float


@dataclass
class FractionalSolution:
    x: np.ndarray  # shape (n, n); x[e-1, t-1]
    y: dict  # (set_id, t) -> value
    T_star: float
    cuts: list = field(default_factory=list)  # (set_id, t, frozenset B) generated
    converged: bool = True
    rounds: int = 0  # LP solves, one per round of cuts
    iterations: int = 0  # simplex iterations summed over the rounds

    def prefix_mass(self, e: int, t: int) -> float:
        """Sum of x[e, t'] over t' < t (t may exceed n)."""
        hi = min(t - 1, self.x.shape[0])
        return float(self.x[e - 1, :hi].sum())

    def y_series(self, set_id: int) -> tuple:
        n = self.x.shape[0]
        return tuple(self.y[(set_id, t)] for t in range(1, n + 1))


def t_star(y: Union[Sequence, dict], set_id: Optional[int] = None) -> int:
    """Last time t with y value <= 1/2; 0 when already above 1/2 at t = 1.

    Accepts either one set's value series or the full y map plus a set id.
    Meaningful when the series is nondecreasing, which solve_lp enforces.
    """
    if isinstance(y, dict):
        series = []
        t = 1
        while (set_id, t) in y:
            series.append(y[(set_id, t)])
            t += 1
    else:
        series = list(y)
    last = 0
    for t, value in enumerate(series, start=1):
        if value <= 0.5:
            last = t
    return last


def _violated_cuts(n, sets, x, y, lp_tol):
    """One most-violating B per (set, t).

    For fixed (set, t) the constraint slack is additive over elements, so
    the worst B contains exactly the members whose prefix mass exceeds
    y[set, t]; only constraints violated beyond lp_tol are returned.
    """
    found = []
    prefix = np.cumsum(x, axis=1)  # prefix[e-1, t-1] = mass through time t
    for set_id, _, s in sets:
        members = sorted(s.members)
        for t in range(1, n + 1):
            y_val = y.get((set_id, t), 0.0)
            if y_val <= 0.0:
                continue
            mass = {e: (prefix[e - 1, t - 2] if t >= 2 else 0.0) for e in members}
            subset = frozenset(e for e in members if mass[e] > y_val)
            lhs = sum(mass[e] for e in members if e not in subset)
            violation = (s.K - len(subset)) * y_val - lhs
            if violation > lp_tol:
                found.append(ViolatedConstraint(set_id, t, subset, violation))
    return found


def separation_oracle(
    inst: Instance, x: np.ndarray, y: dict, lp_tol: float = LP_TOL
) -> Optional[ViolatedConstraint]:
    """Most violated knapsack-cover constraint, or None when all hold."""
    found = _violated_cuts(inst.n, gmsc_sets(inst), x, y, lp_tol)
    if not found:
        return None
    return max(found, key=lambda v: v.violation)


class _LpLayout:
    """Column layout: x[e,t] block (row-major in e), then y[set,t] block, then T."""

    def __init__(self, inst: Instance):
        self.n = inst.n
        self.sets = list(gmsc_sets(inst))
        self.n_sets = len(self.sets)
        self.n_x = self.n * self.n
        self.n_cols = self.n_x + self.n_sets * self.n + 1

    def y_col(self, set_id: int, t: int) -> int:
        return self.n_x + (set_id - 1) * self.n + (t - 1)

    @property
    def t_col(self) -> int:
        return self.n_cols - 1


def solve_lp(inst: Instance, lp_tol: float = LP_TOL, max_cuts: int = MAX_CUTS) -> FractionalSolution:
    """Cutting-plane solve of the fractional relaxation.

    T appears linearly, so it is minimized directly as a variable instead
    of being binary searched. Monotonicity rows y[s,t] <= y[s,t+1] keep the
    coverage indicators consistent with their covered-before-t meaning.
    The model is built once, sparse; every violated (set, t) pair adds its
    worst cut per round, and HiGHS re-solves from its last basis. If the
    cut cap is hit before separation comes back clean, the last solved
    relaxation is returned with converged=False. Raises ValueError when a
    function is not a unit-weight gmsc function or the LP solve fails.
    """
    if inst.n < 1:
        raise ValueError("instance has no elements")
    layout = _LpLayout(inst)
    n = layout.n

    costs = np.zeros(layout.n_cols)
    costs[layout.t_col] = 1.0
    model = simplex.LpModel(costs)

    # every time slot and every element carries unit x-mass
    x_cols = np.arange(layout.n_x).reshape(n, n)  # x_cols[e-1, t-1]
    ones = np.ones(n)
    rows = [(cols, ones) for cols in (*x_cols.T, *x_cols)]
    model.add_rows(rows, upper=np.ones(2 * n), lower=np.ones(2 * n))

    rows, upper = [], []
    for set_id, _, _ in layout.sets:
        first = layout.y_col(set_id, 1)
        for t in range(n - 1):  # y[s,t] - y[s,t+1] <= 0
            rows.append(((first + t, first + t + 1), (1.0, -1.0)))
            upper.append(0.0)
        rows.append(((first + n - 1,), (1.0,)))  # y[s,n] <= 1 caps the whole chain
        upper.append(1.0)
    for agent_index in range(1, len(inst.agents) + 1):
        # sum_t sum_S (1 - y) <= T
        owned = [set_id for set_id, owner, _ in layout.sets if owner == agent_index]
        cols = [layout.y_col(set_id, t) for set_id in owned for t in range(1, n + 1)]
        cols.append(layout.t_col)
        rows.append((cols, np.full(len(cols), -1.0)))
        upper.append(-float(n * len(owned)))
    model.add_rows(rows, upper)

    sets_by_id = {sid: s for sid, _, s in layout.sets}
    cuts = []
    rounds = iterations = 0
    converged = False
    while True:
        res = simplex.solve_dense_lp(model)
        rounds += 1
        iterations += res.iterations
        if res.status != simplex.OPTIMAL:
            raise ValueError(f"LP solve failed: {res.status}")
        x = res.x[: layout.n_x].reshape(n, n)
        y = {
            (set_id, t): float(res.x[layout.y_col(set_id, t)])
            for set_id, _, _ in layout.sets
            for t in range(1, n + 1)
        }
        new = _violated_cuts(n, layout.sets, x, y, lp_tol)
        if not new:
            converged = True
            break
        if len(cuts) + len(new) > max_cuts:
            break
        rows = []
        for cut in new:
            s = sets_by_id[cut.set_id]
            # (K - |B|) y[s,t] - sum_{e in S\B} sum_{t'<t} x[e,t'] <= 0
            cols = [layout.y_col(cut.set_id, cut.time)]
            cols.extend(x_cols[e - 1, tp] for e in sorted(s.members - cut.subset)
                        for tp in range(cut.time - 1))
            vals = np.full(len(cols), -1.0)
            vals[0] = float(s.K - len(cut.subset))
            rows.append((cols, vals))
            cuts.append((cut.set_id, cut.time, cut.subset))
        model.add_rows(rows, np.zeros(len(rows)))

    return FractionalSolution(
        x=x, y=y, T_star=float(res.objective), cuts=cuts, converged=converged,
        rounds=rounds, iterations=iterations,
    )


@dataclass(frozen=True)
class PhaseOutput:
    phase: int  # doubling index l; horizon is 2^l
    picked: tuple  # element ids in index order; () when emptied
    prefix_mass: tuple  # per element 1..n
    emptied: bool
    raw_count: int  # picks before the cap was applied

    @property
    def cap(self) -> int:
        return PHASE_CAP_SCALE * (2 ** self.phase)


def round_phase(x: np.ndarray, phase: int, seed) -> PhaseOutput:
    """One independent rounding of phase l with horizon 2^l.

    Every element is picked with probability min(1, 8 * its x-mass before
    the horizon); outputs exceeding 16 * 2^l picks are emptied. seed may be
    an int or a numpy SeedSequence.
    """
    n = x.shape[0]
    horizon = 2 ** phase
    hi = min(horizon - 1, n)
    mass = x[:, :hi].sum(axis=1)
    probs = np.minimum(1.0, PICK_SCALE * mass)
    rng = np.random.default_rng(seed)
    draws = rng.random(n)
    picked = tuple(int(e) for e in range(1, n + 1) if draws[e - 1] < probs[e - 1])
    cap = PHASE_CAP_SCALE * horizon
    emptied = len(picked) > cap
    return PhaseOutput(
        phase=phase,
        picked=() if emptied else picked,
        prefix_mass=tuple(float(v) for v in mass),
        emptied=emptied,
        raw_count=len(picked),
    )


def _phase_seed(seed: int, phase: int, rep: int) -> np.random.SeedSequence:
    # documented split: child streams keyed by (phase, repetition)
    return np.random.SeedSequence(entropy=seed, spawn_key=(phase, rep))


def gmsc_schedule_detailed(
    inst: Instance, seed: int, solution: Optional[FractionalSolution] = None
):
    """Full rounding pipeline; returns (permutation, phase outputs).

    Phases l = 1..ceil(log2 n), each run max(1, 2 ceil(log2 k)) independent
    times; outputs are concatenated phase-major keeping first occurrences,
    then any missing elements are appended in index order.
    """
    if solution is None:
        solution = solve_lp(inst)
    n = inst.n
    k = len(inst.agents)
    reps = max(1, 2 * math.ceil(math.log2(k)) if k > 1 else 0)
    phases = math.ceil(math.log2(n)) if n > 1 else 0
    outputs = []
    seen = set()
    order = []
    for phase in range(1, phases + 1):
        for rep in range(1, reps + 1):
            out = round_phase(solution.x, phase, _phase_seed(seed, phase, rep))
            outputs.append(out)
            for e in out.picked:
                if e not in seen:
                    seen.add(e)
                    order.append(e)
    for e in range(1, n + 1):
        if e not in seen:
            order.append(e)
    return tuple(order), outputs


def gmsc_schedule(
    inst: Instance, seed: int, solution: Optional[FractionalSolution] = None
) -> tuple:
    order, _ = gmsc_schedule_detailed(inst, seed, solution)
    return order


def rounding_envelope(k: int, T_star: float) -> float:
    """Proven cost envelope of a rounded schedule: 1024 max(log2 k, 1) T*.

    The max keeps the envelope positive for a single agent, where log2 k = 0.
    """
    return 1024.0 * max(math.log2(k), 1.0) * T_star


def write_fractional_csv(sol: FractionalSolution, x_path: str, y_path: str) -> None:
    with open(x_path, "w") as fh:
        fh.write("e,t,x\n")
        for e, row in enumerate(sol.x.tolist(), start=1):  # Python floats, not np.float64
            for t, value in enumerate(row, start=1):
                fh.write(f"{e},{t},{value!r}\n")
    with open(y_path, "w") as fh:
        fh.write("set_id,t,y\n")
        for (set_id, t), value in sorted(sol.y.items()):
            fh.write(f"{set_id},{t},{value!r}\n")
