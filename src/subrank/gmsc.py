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
last basis.

Rounding runs in doubling-horizon phases. Each phase's pick
probabilities min(1, 8 * prefix mass) come once from
``phase_probabilities``, and each independent repetition draws from its
own (phase, repetition) child stream of the seed, so no agent is left
behind. ``round_phase`` rounds one stream and is the reference.
``gmsc_schedules`` rounds a batch of seeds in one pass, and
``gmsc_schedule`` rounds one seed on the same path. The path has three
steps. ``stream_words`` derives the state words of every stream's
``SeedSequence(entropy=seed, spawn_key=(phase, rep))`` at once, with
numpy's SeedSequence hash vectorised over uint32 arrays. ``stream_draws``
sets one reused numpy ``PCG64`` to each stream's seeded state and draws
with ``Generator.random``. Picks, caps and orders are then array
operations over every stream of the batch. The draws are bit-identical
to numpy's own streams, and ``verify`` checks that.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from subrank.core import Instance, make_instance
from subrank.functions import GmscFunction, GmscSet, gmsc_function
from subrank.instance_io import write_csv
from subrank import simplex

LP_TOL = 1e-7
MAX_CUTS = 10_000
PICK_SCALE = 8.0  # rounding probability is min(1, PICK_SCALE * prefix mass)
PHASE_CAP_SCALE = 16  # a phase keeping more than 16 * 2^l picks is emptied
#: rounding draws held at once: seeds are rounded in chunks of about this many
_DRAW_CELLS = 1 << 16

# numpy's SeedSequence hash with its default pool of 4 words
# (numpy/random/bit_generator.pyx) and PCG64's 128-bit LCG multiplier
# (PCG_DEFAULT_MULTIPLIER_128); stream_words and stream_draws reproduce
# numpy's seeding with them, and verify checks the result against numpy
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _hash(value: np.ndarray, const: int, mult: int):
    """One SeedSequence hash step over uint32 words: (hashed words, next constant).

    hashmix (mult _MULT_A) and generate_state (mult _MULT_B) share it.
    """
    const_next = const * mult & _MASK32
    value = (value ^ np.uint32(const)) * np.uint32(const_next)
    return value ^ (value >> np.uint32(16)), const_next


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return value ^ (value >> np.uint32(16))


def _seeded_pools(words: np.ndarray, keys: np.ndarray) -> list:
    """SeedSequence.mix_entropy of every (seed row, spawn key) pair: 4 (seeds, keys) arrays.

    The entropy is a seed's words padded to the pool size, then the key's
    two words. The first 4 words fill and mix the pool, so that part
    depends on the seed alone; every later word is mixed into each pool
    word in turn.
    """
    const = _INIT_A
    pool = []
    for j in range(_POOL_WORDS):
        value, const = _hash(words[:, j], const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                value, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    pool = [word[:, None] for word in pool]
    tail = [words[:, j, None] for j in range(_POOL_WORDS, words.shape[1])]
    for word in tail + [keys[None, :, 0], keys[None, :, 1]]:
        for dst in range(_POOL_WORDS):
            value, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    return pool


def stream_words(seeds, phases: int, reps: int) -> np.ndarray:
    """Every rounding stream's seeding words, derived in bulk.

    Entry [b, s] equals SeedSequence(entropy=seeds[b], spawn_key=(phase,
    rep)).generate_state(4, np.uint64) for the s-th (phase, rep) pair in
    phase-major order, phases 1..phases and reps 1..reps. Seeds are
    grouped by how many 32-bit words they take, at least 4. A negative
    seed raises the ValueError SeedSequence raises.
    """
    seeds = [operator.index(seed) for seed in seeds]
    if any(seed < 0 for seed in seeds):
        raise ValueError("expected non-negative integer")  # numpy SeedSequence's message
    keys = np.array([(phase, rep) for phase in range(1, phases + 1) for rep in range(1, reps + 1)],
                    dtype=np.uint32).reshape(phases * reps, 2)
    out = np.empty((len(seeds), len(keys), 4), dtype=np.uint64)
    widths = [max(_POOL_WORDS, -(-seed.bit_length() // 32)) for seed in seeds]
    for width in set(widths):
        rows = [b for b, w in enumerate(widths) if w == width]
        # each seed's words, least significant first, zero-padded to width
        words = np.array([[seeds[b] >> (32 * j) & _MASK32 for j in range(width)] for b in rows],
                         dtype=np.uint32)
        pool = _seeded_pools(words, keys)
        const = _INIT_B
        state = []
        for j in range(2 * 4):  # generate_state cycles the pool for 8 uint32 words
            value, const = _hash(pool[j % _POOL_WORDS], const, _MULT_B)
            state.append(value.astype(np.uint64))
        out[rows] = np.stack([state[2 * j] | state[2 * j + 1] << np.uint64(32) for j in range(4)],
                             axis=-1)
    return out


def _pcg64_state(w0: int, w1: int, w2: int, w3: int) -> dict:
    """The PCG64 state that generate_state words (w0, w1, w2, w3) seed, as pcg64_set_seed makes it.

    The seed is w0:w1 and the stream w2:w3 (high:low); seeding takes two
    steps of the LCG with the seed added in between.
    """
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def stream_draws(seeds, phases: int, reps: int, n: int) -> np.ndarray:
    """(seeds, phases * reps, n) uniform draws of every stream stream_words names.

    Row [b, s] equals default_rng(the stream's SeedSequence).random(n): one
    reused PCG64 is set to each stream's state, then draws into the row.
    """
    words = stream_words(seeds, phases, reps)
    draws = np.empty(words.shape[:2] + (n,))
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    for row, key in zip(draws.reshape(-1, n), words.reshape(-1, 4).tolist()):
        bits.state = _pcg64_state(*key)
        gen.random(out=row)
    return draws


def _rounding_shape(n: int, k: int) -> tuple:
    """(phases, repetitions): ceil(log2 n) phases, each run max(1, 2 ceil(log2 k)) times."""
    reps = max(1, 2 * math.ceil(math.log2(k)) if k > 1 else 0)
    phases = math.ceil(math.log2(n)) if n > 1 else 0
    return phases, reps


def _rounded(inst: Instance, seeds, solution: FractionalSolution):
    """Round solution for every seed; yields (orders, picks, raw counts) per chunk of seeds.

    orders[b] is seed b's permutation as 0-based element indices. picks[b,
    s] marks stream s's kept picks, none when the stream was emptied, and
    raw[b, s] counts its picks before the cap. An element's place is set by
    the first stream that keeps it, so one stable argsort orders a seed's
    elements phase-major by first occurrence, the never-picked last, each
    group in index order. Chunks hold about _DRAW_CELLS draws.
    """
    n = inst.n
    phases, reps = _rounding_shape(n, len(inst.agents))
    streams = phases * reps
    probs = np.repeat(np.array([phase_probabilities(solution.x, phase)
                                for phase in range(1, phases + 1)]).reshape(phases, n),
                      reps, axis=0)
    caps = np.repeat(PHASE_CAP_SCALE * 2 ** np.arange(1, phases + 1), reps)
    chunk = max(1, _DRAW_CELLS // max(1, streams * n))
    seeds = iter(seeds)
    while batch := list(itertools.islice(seeds, chunk)):
        picks = stream_draws(batch, phases, reps, n) < probs
        raw = picks.sum(axis=2)
        picks &= (raw <= caps)[:, :, None]
        # a final all-True stream gives the never-picked elements first = streams
        first = np.concatenate([picks, np.ones((len(batch), 1, n), bool)], axis=1).argmax(axis=1)
        yield np.argsort(first, axis=1, kind="stable"), picks, raw


def gmsc_schedule(inst: Instance, seed: int, solution: FractionalSolution) -> tuple:
    """Round solution to a permutation; returns (permutation, phase outputs).

    Phases l = 1..ceil(log2 n), each run max(1, 2 ceil(log2 k)) independent
    times from its own (phase, repetition) child stream of seed, as
    ``SeedSequence(entropy=seed, spawn_key=(l, rep))``; a phase's
    probabilities are computed once for all its repetitions. Outputs are
    concatenated phase-major keeping first occurrences, then any missing
    elements are appended in index order. Each phase output equals what
    round_phase gives for its stream; the streams come from the bulk path
    that gmsc_schedules runs. A negative seed raises ValueError.
    """
    (orders, picks, raw), = _rounded(inst, [seed], solution)
    phases, reps = _rounding_shape(inst.n, len(inst.agents))
    outputs = [PhaseOutput(phase, tuple((np.flatnonzero(row) + 1).tolist()), count)
               for phase, row, count in zip(np.repeat(range(1, phases + 1), reps).tolist(),
                                            picks[0], raw[0].tolist())]
    return tuple((orders[0] + 1).tolist()), outputs


def gmsc_schedules(inst: Instance, seeds, solution: FractionalSolution):
    """Yield gmsc_schedule(inst, seed, solution)[0] for each of seeds, in order.

    Seeds are rounded lazily, a chunk at a time, so memory stays bounded
    however many seeds there are.
    """
    for orders, _, _ in _rounded(inst, seeds, solution):
        yield from map(tuple, (orders + 1).tolist())


def rounding_envelope(k: int, T_star: float) -> float:
    """Proven cost envelope of a rounded schedule: 1024 max(log2 k, 1) T*.

    The max keeps the envelope positive for a single agent, where log2 k = 0.
    """
    return 1024.0 * max(math.log2(k), 1.0) * T_star


def write_fractional_csv(sol: FractionalSolution, x_path: str, y_path: str) -> None:
    for path, (index, name), grid in ((x_path, ("e", "x"), sol.x),
                                      (y_path, ("set_id", "y"), sol.y)):
        # tolist gives Python floats, not np.float64
        write_csv(path, f"{index},t,{name}",
                  ({index: i, "t": t, name: value}
                   for i, row in enumerate(grid.tolist(), start=1)
                   for t, value in enumerate(row, start=1)))
