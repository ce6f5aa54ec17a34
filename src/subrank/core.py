"""Instance model, cover-time semantics, and objective evaluation.

Ground set is ``{1..n}``. Each agent holds weighted monotone submodular
functions mapping element subsets to ``[0, 1]`` with full value 1 on the
whole ground set. Every function is a ``SetSystemOracle``: its value is an
integer numerator over a fixed integer denominator, so coverage is an exact
integer comparison with no float tolerance. All operations here are pure;
instances are immutable after construction and safe to share across
parallel workers.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import add, itemgetter, mul
from typing import Iterable, Optional, Sequence

import numpy as np

# An ordering of the ground set: a tuple containing each of 1..n exactly once.
Permutation = tuple

#: What evaluators raise (as ValueError) for a function with f(U) < 1.
NEVER_COVERED = "function never reaches the unit threshold on this permutation"

#: Largest accepted denominator. Numerators up to it are exact in float64,
#: which the vectorised selection kernel relies on.
MAX_DENOMINATOR = 2**53


class SetSystemOracle:
    """Monotone submodular function num(items hit) / denominator.

    A family sets item_weights (the integer weight of each item position)
    and the fixed denominator, and defines numerator(mask): the summed
    item_weights of the set bits of an item bitmask, possibly capped at the
    denominator. So while a function is uncovered, adding one element
    raises the numerator by exactly the weights of the items it newly hits,
    which is what the selection kernel computes. Monotonicity and
    submodularity follow, and min_nonzero_marginal, the per-function
    epsilon, is the smallest item weight over the denominator.

    What each element hits lives in the oracle's incidence, a read-only
    uint8 matrix whose row e - 1 marks the items element e hits, for the
    elements 1..span (later ones hit nothing). A family either names its
    hits as (element, item position) pairs in _hit_pairs, and
    seal_incidences builds the matrix with one fancy-index assignment, or
    gets it elsewhere and calls _seal (a decision-table row takes its block
    of the incidences its table builds for all rows in one pass). The
    element masks (element id -> int bitmask over item positions), which
    the scalar numerator reference and cover_time read, come from the same
    matrix in one pass. Pair-built oracles are sealed together when an
    Instance is built, or one at a time when element_mask or incidence
    first needs them.
    """

    denominator: int = 1
    item_weights: tuple = ()
    # Class defaults, read as plain attributes: looking into self.__dict__
    # would slow every later attribute read of the oracle about threefold.
    _hits: Optional[np.ndarray] = None  # until sealed
    _masks: Optional[list] = None  # _masks[e - 1] is element e's bitmask, e in 1..span
    _incidence: Optional[np.ndarray] = None  # incidence(n) at the last n other than span

    def _hit_pairs(self) -> tuple:
        """(element ids >= 1, item positions): two intp arrays, a pair per hit."""
        raise NotImplementedError

    def _seal(self, hits: np.ndarray, masks: list) -> None:
        """Keep hits (read-only, elements 1..span x items) and their element masks."""
        object.__setattr__(self, "_hits", hits)
        object.__setattr__(self, "_masks", masks)

    def element_mask(self, e: int) -> int:
        masks = self._masks
        if masks is None:
            seal_incidences([self])
            masks = self._masks
        return masks[e - 1] if 0 < e <= len(masks) else 0

    def numerator(self, mask: int) -> int:
        raise NotImplementedError

    @property
    def min_nonzero_marginal(self) -> float:
        return min(self.item_weights) / self.denominator if self.item_weights else 1.0

    def union_mask(self, subset: Iterable[int]) -> int:
        mask = 0
        for e in subset:
            mask |= self.element_mask(e)
        return mask

    def evaluate(self, subset: Iterable[int]) -> float:
        return self.numerator(self.union_mask(subset)) / self.denominator

    def covers(self, subset: Iterable[int]) -> bool:
        """Whether the subset reaches the unit threshold."""
        return self.mask_covers(self.union_mask(subset))

    def mask_covers(self, mask: int) -> bool:
        return self.numerator(mask) == self.denominator

    def incidence(self, n: int) -> np.ndarray:
        """Read-only uint8 matrix (n, len(item_weights)): row e - 1 marks the items e hits.

        The oracle's own incidence when n is its span; otherwise that matrix
        cut or zero-padded to n rows, built once per n and kept on the
        oracle, so every run on an instance that holds it reuses the matrix.
        """
        hits = self._hits
        if hits is None:
            seal_incidences([self])
            hits = self._hits
        if n == len(hits):
            return hits
        cached = self._incidence
        if cached is None or cached.shape[0] != n:
            cached = np.zeros((n, hits.shape[1]), np.uint8)
            cached[:len(hits)] = hits[:n]
            cached.flags.writeable = False
            object.__setattr__(self, "_incidence", cached)
        return cached


def seal_incidences(oracles: Sequence[SetSystemOracle]) -> None:
    """Give pair-built oracles their incidences and element masks in one pass.

    Every oracle's hit pairs go into one uint8 matrix, elements 1..span by
    all the oracles' items side by side (each block starting on a whole
    byte), with one fancy-index assignment. Each oracle keeps its column
    block (a view) as its incidence, and block_masks derives all the
    element masks from the whole matrix. Raises ValueError on an element id
    below 1.
    """
    if not oracles:
        return
    pairs = [f._hit_pairs() for f in oracles]
    widths = [len(f.item_weights) for f in oracles]
    starts = 8 * np.cumsum([0] + [-(-w // 8) for w in widths])  # block columns
    elements = np.concatenate([e for e, _ in pairs])
    columns = np.concatenate([p for _, p in pairs])
    columns += np.repeat(starts[:-1], [e.size for e, _ in pairs])  # item position -> column
    if elements.size and elements.min() < 1:
        raise ValueError(f"element id {int(elements.min())} is below 1")
    hits = np.zeros((int(elements.max()) if elements.size else 0, int(starts[-1])), np.uint8)
    hits[elements - 1, columns] = 1
    hits.flags.writeable = False  # and so is every block viewing it
    for f, lo, w, masks in zip(oracles, starts.tolist(), widths, block_masks(hits, widths)):
        f._seal(hits[:, lo:lo + w], masks)


def block_masks(hits: np.ndarray, widths: Sequence[int]) -> list:
    """Element masks of the oracles whose incidences are hits' column blocks.

    widths are the blocks' widths, left to right; each block starts on a
    whole byte, ceil(width / 8) * 8 columns after the one before it.
    Returns one list per block whose entry e - 1 is the int with bit p set
    when row e - 1 marks the block's item p. One packbits pass gives the
    bytes. The blocks of at most 64 items, the common case, then take one
    shifted reduceat that sums each block's bytes into one 64-bit word per
    row; a wider block reads each row's bytes with int.from_bytes, sliced
    from one bytes copy of the packed matrix.
    """
    rows = hits.shape[0]
    nbytes = [-(-w // 8) for w in widths]
    starts = list(itertools.accumulate(nbytes, initial=0))
    packed = np.packbits(hits, axis=1, bitorder="little")
    words: Iterable = iter(())
    if any(0 < b <= 8 for b in nbytes):
        shifts = np.arange(packed.shape[1], dtype=np.uint64)  # each byte's offset in its block
        shifts -= np.repeat(np.array(starts[:-1], np.uint64), nbytes)
        shifts = (shifts & np.uint64(7)) << np.uint64(3)  # past 8 bytes only in wide blocks
        segments = [lo for lo, b in zip(starts, nbytes) if b]
        sums = np.add.reduceat(np.left_shift(packed, shifts, dtype=np.uint64), segments, axis=1)
        words = iter(sums.T.tolist())  # one list per nonempty block
    raw = packed.tobytes() if any(b > 8 for b in nbytes) else b""
    stride = packed.shape[1]
    masks = []
    for lo, b in zip(starts, nbytes):
        if not b:
            masks.append([0] * rows)
        elif b <= 8:
            masks.append(next(words))
        else:
            next(words, None)  # a wide block's word sums overlap, so they are skipped
            masks.append([int.from_bytes(raw[at:at + b], "little")
                          for at in range(lo, len(raw), stride)])
    return masks


def sequential_sum(values: Iterable[float]) -> float:
    """values added left to right from 0.0: the bits of a += loop.

    The builtin sum of floats compensates its rounding from CPython 3.12
    on, so it can differ from this in the last place; every float total
    an output depends on goes through here instead, on every version.
    reduce makes the same additions in the same order as a += loop, in C.
    """
    return functools.reduce(add, values, 0.0)


@dataclass(frozen=True)
class Agent:
    """One agent: an id in 1..k and a list of (oracle, weight) pairs."""

    id: int
    functions: tuple  # tuple of (SetSystemOracle, float)

    def total_weight(self) -> float:
        return sequential_sum(map(itemgetter(1), self.functions))


@dataclass(frozen=True)
class Instance:
    """A shared ground set {1..n} plus the agents ranking it.

    epsilon (the smallest min_nonzero_marginal, or 1.0) and W (the largest
    agent total weight, or 0.0) are derived from the agents. Raises
    TypeError on a function that is not a SetSystemOracle, and ValueError
    on n below 0, duplicate agent ids, a denominator above MAX_DENOMINATOR
    or an element id below 1. Each distinct oracle is checked once, where
    it first appears in agent order, so the error raised is that of the
    first bad function. The oracles not sealed yet get their incidences in
    one seal_incidences pass.

    oracles lists the distinct oracles (by identity) in first-appearance
    order, and oracle_index holds, per agent, the position in oracles of
    each of its functions, so evaluators can handle a shared oracle once.
    """

    n: int
    agents: tuple
    epsilon: float = field(init=False)
    W: float = field(init=False)
    oracles: tuple = field(init=False, repr=False, compare=False)
    oracle_index: tuple = field(init=False, repr=False, compare=False)
    # The selection kernel's root state, built on the first run and kept
    # here (like an oracle's incidence) so every later run on the instance
    # starts from a copy of it; see algorithms._Kernel.start.
    _kernel_root = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be at least 0, got {self.n}")
        seen = set()
        oracles: list = []
        position: dict = {}  # id(oracle) -> its index in oracles
        index = []
        for agent in self.agents:
            if agent.id in seen:
                raise ValueError(f"duplicate agent id {agent.id}")
            seen.add(agent.id)
            ids = list(map(id, map(itemgetter(0), agent.functions)))
            agent_index = tuple(map(position.get, ids))
            if None in agent_index:
                # each oracle is checked once, where it first appears
                for f, _ in agent.functions:
                    if id(f) in position:
                        continue
                    if not isinstance(f, SetSystemOracle):
                        raise TypeError(
                            f"agent {agent.id}: {type(f).__name__} is not a SetSystemOracle"
                        )
                    if f.denominator > MAX_DENOMINATOR:
                        raise ValueError(
                            f"agent {agent.id}: denominator {f.denominator} exceeds 2**53"
                        )
                    position[id(f)] = len(oracles)
                    oracles.append(f)
                agent_index = tuple(map(position.__getitem__, ids))
            index.append(agent_index)
        seal_incidences([f for f in oracles if f._hits is None])
        object.__setattr__(self, "oracles", tuple(oracles))
        object.__setattr__(self, "oracle_index", tuple(index))
        eps = min((f.min_nonzero_marginal for f in oracles), default=1.0)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "W", max((a.total_weight() for a in self.agents), default=0.0))

    def agent_by_id(self, agent_id: int) -> Agent:
        for agent in self.agents:
            if agent.id == agent_id:
                return agent
        raise KeyError(f"unknown agent id {agent_id}")


def make_instance(n: int, agent_functions: Sequence[Sequence[tuple]]) -> Instance:
    """Build an Instance from per-agent lists of (oracle, weight) pairs.

    Agent ids are assigned 1..k in list order.
    """
    agents = tuple(
        Agent(id=i + 1, functions=tuple(funcs))
        for i, funcs in enumerate(agent_functions)
    )
    return Instance(n=n, agents=agents)


def is_permutation(n: int, order: Sequence[int]) -> bool:
    """Whether order is a bijection over {1..n}."""
    return len(order) == n and sorted(order) == list(range(1, n + 1))


def _require_permutation(inst: Instance, pi: Sequence[int]) -> None:
    if not is_permutation(inst.n, pi):
        raise ValueError(f"ordering is not a permutation of 1..{inst.n}")


def normalized_gain_sum(f: SetSystemOracle, order: Sequence[int]) -> float:
    """Telescoping sum of per-step gains over the residual to coverage.

    Along the prefix chain of order, accumulates
    (f(S_t) - f(S_{t-1})) / (1 - f(S_{t-1})) over the steps where the
    previous prefix is still uncovered. For any monotone function with
    minimum nonzero marginal eps this never exceeds 1 + ln(1/eps).
    """
    total = 0.0
    mask = 0
    value = f.numerator(mask) / f.denominator
    for e in order:
        if f.mask_covers(mask):
            break
        mask |= f.element_mask(e)
        new_value = f.numerator(mask) / f.denominator
        total += (new_value - value) / (1.0 - value)
        value = new_value
    return total


def cover_time(f: SetSystemOracle, pi: Sequence[int]) -> int:
    """Smallest t such that the first t elements of pi reach the threshold.

    Returns 0 when the empty set already covers. Requires f to reach 1 on
    the full ground set; raises otherwise.
    """
    element_mask, mask_covers = f.element_mask, f.mask_covers
    mask = 0
    if mask_covers(mask):
        return 0
    for t, e in enumerate(pi, start=1):
        mask |= element_mask(e)
        if mask_covers(mask):
            return t
    raise ValueError(NEVER_COVERED)


def agent_cost(inst: Instance, agent_id: int, pi: Sequence[int]) -> float:
    """Total weighted cover time of one agent under permutation pi.

    Raises KeyError on an unknown agent id, and ValueError unless pi is a
    permutation of 1..n.
    """
    index = inst.agents.index(inst.agent_by_id(agent_id))
    return cover_report(inst, pi).agent_costs[index]


def objective(inst: Instance, pi: Sequence[int], mode: str = "minmax") -> float:
    """Aggregate agent costs: the max over agents, or their average.

    Raises ValueError unless pi is a permutation of 1..n.
    """
    report = cover_report(inst, pi)
    if mode == "minmax":
        return report.minmax
    if mode == "average":
        return report.average
    raise ValueError(f"unknown objective mode {mode!r}")


@dataclass(frozen=True)
class CoverReport:
    """Full evaluation of a permutation against an instance."""

    cover_times: tuple  # per agent: tuple of per-function cover times
    agent_costs: tuple
    minmax: float
    average: float

    @staticmethod
    def from_costs(cover_times: tuple, costs: list) -> "CoverReport":
        """The report of these per-agent times and costs; ValueError when there is no agent."""
        if not costs:
            raise ValueError("instance has no agents")
        return CoverReport(
            cover_times=cover_times,
            agent_costs=tuple(costs),
            minmax=max(costs),
            average=sequential_sum(costs) / len(costs),
        )


def cover_report(inst: Instance, pi: Sequence[int]) -> CoverReport:
    """Cover times and costs of every agent under pi: the reference evaluator.

    Each distinct oracle (by identity) is timed once, however many agents
    hold it, by walking pi with scalar numerators. Greedy, NG and BAG runs
    report the same thing from their kernel (algorithms._Kernel.report),
    and tests hold those reports to this one bit for bit. Raises
    ValueError unless pi is a permutation of 1..n, when the instance has
    no agents, and when some function never reaches 1 (NEVER_COVERED).
    """
    _require_permutation(inst, pi)
    by_oracle = [cover_time(f, pi) for f in inst.oracles]
    times = tuple(tuple(map(by_oracle.__getitem__, index)) for index in inst.oracle_index)
    # an agent's cost sums weight * time over its functions in order; from
    # 0.0, so an agent without functions costs a float too
    costs = [
        sequential_sum(map(mul, map(itemgetter(1), agent.functions), agent_times))
        for agent, agent_times in zip(inst.agents, times)
    ]
    return CoverReport.from_costs(times, costs)


# --- validation ---------------------------------------------------------

#: Violations that make cover-time semantics undefined; loaders and the CLI
#: treat these as hard errors, while sub-unit weights are reported but usable
#: (the tie-breaking hard family at k=4 carries one weight just below 1).
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Violation:
    severity: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.where}: {self.message}"


def validate(inst: Instance) -> list:
    """Check instance invariants; returns violations, never raises.

    Every function is checked exactly for f(U) = 1, on the items its
    incidence marks over 1..n (_ground_set_masks); monotonicity and
    submodularity hold by construction of SetSystemOracle.
    """
    violations = []
    full = _ground_set_masks(inst)

    for agent, index in zip(inst.agents, inst.oracle_index):
        if not agent.functions:
            violations.append(
                Violation(SEVERITY_ERROR, f"agent {agent.id}", "agent has no functions")
            )
        for j, ((f, w), o) in enumerate(zip(agent.functions, index), start=1):
            where = f"agent {agent.id} function {j}"
            if w <= 0:
                violations.append(Violation(SEVERITY_ERROR, where, f"weight < 1 (w={w})"))
            elif w < 1:
                violations.append(Violation(SEVERITY_WARNING, where, f"weight < 1 (w={w})"))
            if not (0 < f.min_nonzero_marginal <= 1):
                violations.append(
                    Violation(
                        SEVERITY_ERROR,
                        where,
                        f"min_nonzero_marginal out of (0,1]: {f.min_nonzero_marginal}",
                    )
                )
            if not f.mask_covers(full[o]):
                value = f.numerator(full[o]) / f.denominator
                violations.append(Violation(SEVERITY_ERROR, where, f"f(U) != 1 (f(U)={value})"))

    return violations


def _ground_set_masks(inst: Instance) -> list:
    """Per distinct oracle (inst.oracles order), the items some element of 1..n hits.

    One pass reads the columns of all the incidences side by side, and each
    oracle's bitmask is its slice of the packed result.
    """
    if not inst.oracles:
        return []
    hit = np.concatenate([f.incidence(inst.n) for f in inst.oracles], axis=1).any(axis=0)
    every = int.from_bytes(np.packbits(hit, bitorder="little").tobytes(), "little")
    masks = []
    for f in inst.oracles:
        width = len(f.item_weights)
        masks.append(every & ((1 << width) - 1))
        every >>= width
    return masks


def errors_only(violations: Iterable[Violation]) -> list:
    return [v for v in violations if v.severity == SEVERITY_ERROR]
