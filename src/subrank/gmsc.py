"""Generalized min-sum set cover over multiple agents.

The module works on an ``Instance`` whose functions are all unit-weight
gmsc functions: each one is a set with a coverage requirement K, covered
once K of its members have appeared in the permutation, and an agent pays
the sum of its sets' cover times. The fractional relaxation uses assignment
variables x[e,t], held as an (n x n) array, coverage indicators y[set,t],
held as a (sets x n) array with one row per set in ``gmsc_sets`` order, and
a bound variable T minimized directly; the exponential knapsack-cover
family is generated lazily by separation and the LP re-solved until no
constraint is violated. Separation scores all sets at once over a padded
(sets x largest set) member table; ``violated_cuts`` reports what it finds.
The LP is one sparse HiGHS model (see ``simplex``): its initial rows and
each round's new cuts go in as CSR blocks, and it is re-solved from its
last basis. ``gmsc_schedule`` rounds in doubling-horizon phases: each
phase's pick probabilities min(1, 8 * prefix mass) come once from
``phase_probabilities``, and ``round_phase`` draws each independent
repetition from its own (phase, repetition) stream, so no agent is left
behind.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

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


class _SetTable:
    """The sets of gmsc_sets as padded arrays; row i is set id i + 1.

    members[i, j] is the 0-based index of set i's j-th smallest member for
    the j with valid[i, j]; the padding after a row's last member is 0.
    K holds each set's coverage requirement.
    """

    def __init__(self, sets):
        ordered = [sorted(s.members) for _, _, s in sets]
        sizes = np.array([len(m) for m in ordered], dtype=np.intp)
        self.valid = np.arange(sizes.max(initial=1)) < sizes[:, None]
        self.members = np.zeros(self.valid.shape, dtype=np.intp)
        self.members[self.valid] = np.fromiter((e - 1 for m in ordered for e in m), np.intp,
                                               sizes.sum())
        self.K = np.array([s.K for _, _, s in sets], dtype=np.int64)

    def subsets(self, rows: np.ndarray, inside: np.ndarray) -> list:
        """frozenset of 1-based member ids marked by inside[c], for each rows[c]."""
        marked = np.where(inside, self.members[rows] + 1, 0).tolist()
        return [frozenset(filter(None, ids)) for ids in marked]


def _separate(table: _SetTable, x, y, lp_tol):
    """Most violating B of every (set, t) violated beyond lp_tol, in (set, t) order.

    For fixed (set, t) the constraint slack is additive over elements, so
    the worst B contains exactly the members whose mass before t exceeds
    y[set, t]. All sets are scored at once over the padded member table.
    The mass outside B is summed sequentially in member order, because a
    regrouped sum can move a violation by an ulp; padding sits at the end
    of a row, outside B, and adds +0.0. Returns (0-based set ids, 0-based
    times, inside B as (cuts, largest set size), violations).
    """
    before = np.zeros_like(x)  # before[e-1, t-1] = x-mass of e placed before t
    np.cumsum(x[:, :-1], axis=1, out=before[:, 1:])
    mass = before[table.members]  # (sets, largest set size, n)
    mass[~table.valid] = 0.0
    inside = (mass > y[:, None, :]) & table.valid[:, :, None]
    mass[inside] = 0.0
    outside = np.cumsum(mass, axis=1)[:, -1]
    violation = (table.K[:, None] - inside.sum(axis=1)) * y - outside
    rows, times = np.nonzero((y > 0.0) & (violation > lp_tol))
    return rows, times, inside[rows, :, times], violation[rows, times]


def violated_cuts(inst: Instance, x: np.ndarray, y: np.ndarray, lp_tol: float = LP_TOL) -> list:
    """Most violating knapsack-cover cut of every (set, t) violated beyond lp_tol.

    Returns (set_id, t, B, violation) tuples in (set, t) order, B a
    frozenset of member ids; empty when every constraint holds.
    """
    table = _SetTable(list(gmsc_sets(inst)))
    rows, times, inside, violation = _separate(table, x, y, lp_tol)
    return list(zip((rows + 1).tolist(), (times + 1).tolist(), table.subsets(rows, inside),
                    violation.tolist()))


def _csr_starts(lengths: np.ndarray) -> np.ndarray:
    starts = np.zeros(lengths.size, dtype=np.int32)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


def _base_rows(n: int, owned: np.ndarray):
    """CSR blocks (starts, indices, values, upper) every relaxation starts from.

    owned[a] counts agent a's sets, whose ids are consecutive. Columns are
    x[e,t] row-major in e, then y[set,t] row-major in set, then T. The
    first block holds the 2n assignment rows (equalities), the second each
    set's monotone and cap rows, then one row per agent.
    """
    sets = int(owned.sum())
    x_cols = np.arange(n * n).reshape(n, n)
    y_cols = n * n + np.arange(sets * n).reshape(sets, n)
    t_col = n * n + sets * n
    # every time slot, then every element, carries unit x-mass
    assign = (_csr_starts(np.full(2 * n, n)), np.concatenate([x_cols.T.ravel(), x_cols.ravel()]),
              np.ones(2 * n * n), np.ones(2 * n))
    # y[s,t] - y[s,t+1] <= 0 for t < n, then y[s,n] <= 1 caps the whole chain
    pairs = np.stack([y_cols[:, :-1], y_cols[:, 1:]], axis=2).reshape(sets, 2 * (n - 1))
    chain = np.concatenate([pairs, y_cols[:, -1:]], axis=1).ravel()
    chain_values = np.tile(np.append(np.tile([1.0, -1.0], n - 1), 1.0), sets)
    # sum_t sum_S (1 - y) <= T, as -sum_t sum_S y - T <= -n |S|
    agent_rows = np.insert(y_cols.ravel(), n * np.cumsum(owned), t_col)
    lengths = np.concatenate([np.tile(np.append(np.full(n - 1, 2), 1), sets), n * owned + 1])
    rest = (_csr_starts(lengths), np.concatenate([chain, agent_rows]),
            np.concatenate([chain_values, np.full(agent_rows.size, -1.0)]),
            np.concatenate([np.tile(np.append(np.zeros(n - 1), 1.0), sets),
                            -(n * owned).astype(float)]))
    return assign, rest


def _cut_rows(table: _SetTable, n: int, rows, times, inside):
    """CSR block (starts, indices, values) of the cuts _separate found.

    Cut c reads (K - |B|) y[s,t] - sum_{e in S - B} sum_{t'<t} x[e,t'] <= 0:
    its y column first, then x[e, 0..t-2] for each member outside B in
    member order.
    """
    steps = np.arange(n - 1)
    outside = table.valid[rows] & ~inside
    x_part = table.members[rows][:, :, None] * n + steps  # (cuts, members, n - 1)
    keep = outside[:, :, None] & (steps < times[:, None, None])
    lengths = 1 + keep.sum(axis=(1, 2))
    starts = _csr_starts(lengths)
    head = np.zeros(lengths.sum(), dtype=bool)
    head[starts] = True
    indices = np.empty(head.size, dtype=np.int32)
    indices[head] = n * n + rows * n + times
    indices[~head] = x_part[keep]
    values = np.full(head.size, -1.0)
    values[starts] = table.K[rows] - inside.sum(axis=1)
    return starts, indices, values


def solve_lp(inst: Instance) -> FractionalSolution:
    """Cutting-plane solve of the fractional relaxation.

    T appears linearly, so it is minimized directly as a variable instead
    of being binary searched. Monotonicity rows y[s,t] <= y[s,t+1] keep the
    coverage indicators consistent with their covered-before-t meaning.
    The model is built once, sparse; every violated (set, t) pair adds its
    worst cut per round, all of a round's cuts in one CSR block, and HiGHS
    re-solves from its last basis. Cuts must be violated by more than
    LP_TOL. If adding a round's cuts would pass MAX_CUTS before separation
    comes back clean, the last solved relaxation is returned with
    converged=False. Raises ValueError when a function is not a
    unit-weight gmsc function or the LP solve fails.
    """
    if inst.n < 1:
        raise ValueError("instance has no elements")
    n = inst.n
    sets = list(gmsc_sets(inst))
    table = _SetTable(sets)
    owned = np.bincount([owner - 1 for _, owner, _ in sets], minlength=len(inst.agents))
    n_x, n_y = n * n, len(sets) * n

    costs = np.zeros(n_x + n_y + 1)
    costs[-1] = 1.0  # T
    model = simplex.LpModel(costs)
    assign, rest = _base_rows(n, owned)
    model.add_rows(*assign, lower=assign[-1])
    model.add_rows(*rest)

    cuts = []
    rounds = iterations = 0
    converged = False
    while True:
        res = simplex.solve_dense_lp(model)
        rounds += 1
        iterations += res.iterations
        if res.status != simplex.OPTIMAL:
            raise ValueError(f"LP solve failed: {res.status}")
        x = res.x[:n_x].reshape(n, n)
        y = res.x[n_x:n_x + n_y].reshape(len(sets), n)
        rows, times, inside, _ = _separate(table, x, y, LP_TOL)
        if not rows.size:
            converged = True
            break
        if len(cuts) + rows.size > MAX_CUTS:
            break
        model.add_rows(*_cut_rows(table, n, rows, times, inside), np.zeros(rows.size))
        cuts.extend(zip((rows + 1).tolist(), (times + 1).tolist(), table.subsets(rows, inside)))

    return FractionalSolution(
        x=x, y=y, T_star=float(res.objective), cuts=cuts, converged=converged,
        rounds=rounds, iterations=iterations,
    )


@dataclass(frozen=True)
class PhaseOutput:
    phase: int  # doubling index l; horizon is 2^l
    picked: tuple  # element ids in index order; () when emptied
    raw_count: int  # picks before the cap was applied

    @property
    def cap(self) -> int:
        return PHASE_CAP_SCALE * (2 ** self.phase)

    @property
    def emptied(self) -> bool:
        return self.raw_count > self.cap


def phase_probabilities(x: np.ndarray, phase: int) -> np.ndarray:
    """Pick probability of every element in phase l: min(1, 8 * x-mass before 2^l)."""
    hi = min(2 ** phase - 1, x.shape[0])
    return np.minimum(1.0, PICK_SCALE * x[:, :hi].sum(axis=1))


def round_phase(probs: np.ndarray, phase: int, seed) -> PhaseOutput:
    """One independent rounding of phase l with horizon 2^l.

    Element e is picked with probability probs[e - 1], as
    phase_probabilities gives them; outputs exceeding 16 * 2^l picks are
    emptied. seed may be an int or a numpy SeedSequence.
    """
    draws = np.random.default_rng(seed).random(probs.size)
    picked = tuple((np.flatnonzero(draws < probs) + 1).tolist())
    out = PhaseOutput(phase, picked, len(picked))
    return PhaseOutput(phase, (), len(picked)) if out.emptied else out


def gmsc_schedule(inst: Instance, seed: int, solution: FractionalSolution) -> tuple:
    """Round solution to a permutation; returns (permutation, phase outputs).

    Phases l = 1..ceil(log2 n), each run max(1, 2 ceil(log2 k)) independent
    times from its own (phase, repetition) child stream of seed; a phase's
    probabilities are computed once for all its repetitions. Outputs are
    concatenated phase-major keeping first occurrences, then any missing
    elements are appended in index order.
    """
    n = inst.n
    k = len(inst.agents)
    reps = max(1, 2 * math.ceil(math.log2(k)) if k > 1 else 0)
    phases = math.ceil(math.log2(n)) if n > 1 else 0
    outputs = []
    for phase in range(1, phases + 1):
        probs = phase_probabilities(solution.x, phase)
        for rep in range(1, reps + 1):
            stream = np.random.SeedSequence(entropy=seed, spawn_key=(phase, rep))
            outputs.append(round_phase(probs, phase, stream))
    order = dict.fromkeys([e for out in outputs for e in out.picked] + list(range(1, n + 1)))
    return tuple(order), outputs


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
