"""Generalized min-sum set cover over multiple agents.

The module works on an ``Instance`` whose functions are all unit-weight
gmsc functions: each one is a set with a coverage requirement K, covered
once K of its members have appeared in the permutation, and an agent pays
the sum of its sets' cover times. The fractional relaxation uses assignment
variables x[e,t], held as an (n x n) array, coverage indicators y[set,t],
held as a (sets x n) array with one row per set in ``gmsc_sets`` order, and
a bound variable T minimized directly; the exponential knapsack-cover
family is generated lazily through the separation oracle and the LP
re-solved until no constraint is violated. The LP is one sparse HiGHS
model (see ``simplex``) that grows by the new cuts each round and is
re-solved from its last basis. Rounding runs doubling-horizon phases,
picking each element independently with probability min(1, 8 * prefix
mass) and interleaving independent repetitions so no agent is left behind.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
    """An LP optimum; set ids index the rows of y as gmsc_sets numbers them."""

    x: np.ndarray  # shape (n, n); x[e-1, t-1]
    y: np.ndarray  # shape (sets, n); y[set_id-1, t-1]
    T_star: float
    cuts: list = field(default_factory=list)  # (set_id, t, frozenset B) generated
    converged: bool = True
    rounds: int = 0  # LP solves, one per round of cuts
    iterations: int = 0  # simplex iterations summed over the rounds


def t_star(series: Sequence) -> int:
    """Last time t with y value <= 1/2 in one set's series; 0 when above 1/2 at t = 1.

    Meaningful when the series is nondecreasing, which solve_lp enforces.
    """
    last = 0
    for t, value in enumerate(series, start=1):
        if value <= 0.5:
            last = t
    return last


def _violated_cuts(sets, x, y, lp_tol):
    """One most-violating B per (set, t), in (set, t) order.

    For fixed (set, t) the constraint slack is additive over elements, so
    the worst B contains exactly the members whose mass before t exceeds
    y[set, t]; only constraints violated beyond lp_tol are returned. The
    mass outside B is summed sequentially in member order, because a
    regrouped sum can move a violation by an ulp.
    """
    before = np.zeros_like(x)  # before[e-1, t-1] = x-mass of e placed before t
    np.cumsum(x[:, :-1], axis=1, out=before[:, 1:])
    found = []
    for set_id, _, s in sets:
        members = np.array(sorted(s.members))
        mass = before[members - 1]  # (members, n)
        y_row = y[set_id - 1]
        inside = mass > y_row
        outside = np.cumsum(np.where(inside, 0.0, mass), axis=0)[-1]
        violation = (s.K - inside.sum(axis=0)) * y_row - outside
        for t in np.flatnonzero((y_row > 0.0) & (violation > lp_tol)).tolist():
            subset = frozenset(members[inside[:, t]].tolist())
            found.append(ViolatedConstraint(set_id, t + 1, subset, float(violation[t])))
    return found


def separation_oracle(
    inst: Instance, x: np.ndarray, y: np.ndarray, lp_tol: float = LP_TOL
) -> Optional[ViolatedConstraint]:
    """Most violated knapsack-cover constraint, or None when all hold."""
    found = _violated_cuts(gmsc_sets(inst), x, y, lp_tol)
    if not found:
        return None
    return max(found, key=lambda v: v.violation)


def solve_lp(inst: Instance) -> FractionalSolution:
    """Cutting-plane solve of the fractional relaxation.

    T appears linearly, so it is minimized directly as a variable instead
    of being binary searched. Monotonicity rows y[s,t] <= y[s,t+1] keep the
    coverage indicators consistent with their covered-before-t meaning.
    The model is built once, sparse; every violated (set, t) pair adds its
    worst cut per round, and HiGHS re-solves from its last basis. Cuts
    must be violated by more than LP_TOL. If adding a round's cuts would
    pass MAX_CUTS before separation comes back clean, the last solved
    relaxation is returned with converged=False. Raises ValueError when a
    function is not a unit-weight gmsc function or the LP solve fails.
    """
    if inst.n < 1:
        raise ValueError("instance has no elements")
    n = inst.n
    sets = list(gmsc_sets(inst))
    # columns: x[e,t] row-major in e, then y[set,t] row-major in set, then T
    x_cols = np.arange(n * n).reshape(n, n)
    y_cols = n * n + np.arange(len(sets) * n).reshape(len(sets), n)
    t_col = n * n + y_cols.size

    costs = np.zeros(t_col + 1)
    costs[t_col] = 1.0
    model = simplex.LpModel(costs)

    # every time slot and every element carries unit x-mass
    ones = np.ones(n)
    rows = [(cols, ones) for cols in (*x_cols.T, *x_cols)]
    model.add_rows(rows, upper=np.ones(2 * n), lower=np.ones(2 * n))

    rows, upper = [], []
    for cols in y_cols:
        for t in range(n - 1):  # y[s,t] - y[s,t+1] <= 0
            rows.append(((cols[t], cols[t + 1]), (1.0, -1.0)))
            upper.append(0.0)
        rows.append(((cols[-1],), (1.0,)))  # y[s,n] <= 1 caps the whole chain
        upper.append(1.0)
    for agent_index in range(1, len(inst.agents) + 1):
        # sum_t sum_S (1 - y) <= T
        owned = [set_id - 1 for set_id, owner, _ in sets if owner == agent_index]
        cols = np.append(y_cols[owned].ravel(), t_col)
        rows.append((cols, np.full(len(cols), -1.0)))
        upper.append(-float(n * len(owned)))
    model.add_rows(rows, upper)

    cuts = []
    rounds = iterations = 0
    converged = False
    while True:
        res = simplex.solve_dense_lp(model)
        rounds += 1
        iterations += res.iterations
        if res.status != simplex.OPTIMAL:
            raise ValueError(f"LP solve failed: {res.status}")
        x, y = res.x[x_cols], res.x[y_cols]
        new = _violated_cuts(sets, x, y, LP_TOL)
        if not new:
            converged = True
            break
        if len(cuts) + len(new) > MAX_CUTS:
            break
        rows = []
        for cut in new:
            s = sets[cut.set_id - 1][2]
            outside = np.array(sorted(s.members - cut.subset), dtype=int)
            # (K - |B|) y[s,t] - sum_{e in S\B} sum_{t'<t} x[e,t'] <= 0
            cols = np.append(y_cols[cut.set_id - 1, cut.time - 1],
                             x_cols[outside - 1, : cut.time - 1].ravel())
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
    picked = tuple((np.flatnonzero(draws < probs) + 1).tolist())
    cap = PHASE_CAP_SCALE * horizon
    emptied = len(picked) > cap
    return PhaseOutput(
        phase=phase,
        picked=() if emptied else picked,
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
    for path, header, grid in ((x_path, "e,t,x", sol.x), (y_path, "set_id,t,y", sol.y)):
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for i, row in enumerate(grid.tolist(), start=1):  # Python floats, not np.float64
                for t, value in enumerate(row, start=1):
                    fh.write(f"{i},{t},{value!r}\n")
