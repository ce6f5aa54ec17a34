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
import math
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

# Words per pass of bit_windows: rows are read in chunks so its temporaries
# stay near this size.
_WINDOW_CELLS = 1 << 14


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
    elements 1..span (later ones hit nothing), and in its element masks
    (element id -> int bitmask over item positions), which the scalar
    numerator reference and cover_time read. A family names its hits as
    (element, item position) pairs in _hit_pairs, and the first Instance
    that holds the oracle seals it with a block (a view) of the instance's
    matrix, or element_mask seals it alone; a decision-table row calls
    _seal with its block of its table's incidences. Runs and validate read
    the instance's matrix (Instance.hits), not the oracle's block.
    """

    denominator: int = 1
    item_weights: tuple = ()
    # Class defaults, read as plain attributes: looking into self.__dict__
    # would slow every later attribute read of the oracle about threefold.
    _hits: Optional[np.ndarray] = None  # until sealed
    _masks: Optional[list] = None  # _masks[e - 1] is element e's bitmask, e in 1..span

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


def seal_incidences(oracles: Sequence[SetSystemOracle], rows: int = 0) -> tuple:
    """(hits, starts): the oracles' incidences side by side, and each one's first column.

    hits is one read-only uint8 matrix over the elements 1..max(rows,
    largest hit), without padding; an oracle without items gets one zero
    column. The hit pairs of the oracles not sealed yet go in with one
    fancy-index assignment, and each keeps its block (a view) and its
    element masks; an oracle sealed before, by its table or an earlier
    instance, is copied into its block with one slice assignment. Raises
    ValueError on an element id below 1.
    """
    widths = [len(f.item_weights) for f in oracles]
    bounds = list(itertools.accumulate([w or 1 for w in widths], initial=0))
    fresh = [f._hits is None for f in oracles]
    new, lows, new_widths = (list(itertools.compress(v, fresh)) for v in (oracles, bounds, widths))
    pairs = [f._hit_pairs() for f in new]
    elements = np.concatenate([e for e, _ in pairs]) if pairs else np.zeros(0, np.intp)
    if elements.size and elements.min() < 1:
        raise ValueError(f"element id {int(elements.min())} is below 1")
    size = max(rows, int(elements.max()) if elements.size else 0)
    hits = np.zeros((size, bounds[-1]), np.uint8)
    if pairs:
        columns = np.concatenate([p for _, p in pairs])
        columns += np.repeat(lows, [e.size for e, _ in pairs])  # item position -> column
        hits[elements - 1, columns] = 1
    for f, w, is_new, lo in zip(oracles, widths, fresh, bounds):
        if not is_new:
            block = f._hits[:size]
            hits[:len(block), lo:lo + w] = block
    hits.flags.writeable = False  # and so is every block viewing it
    for f, lo, w, masks in zip(new, lows, new_widths, block_masks(hits, new_widths, lows)):
        f._seal(hits[:, lo:lo + w], masks)
    return hits, np.array(bounds[:-1], np.intp)


def block_masks(hits: np.ndarray, widths: Sequence[int],
                starts: Optional[Sequence[int]] = None) -> list:
    """Element masks of the oracles whose incidences are hits' column blocks.

    Block j is the widths[j] columns from starts[j] (by default the blocks
    lie side by side from column 0); other columns are ignored. Returns one
    list per block whose entry e - 1 is the int with bit p set when row
    e - 1 marks the block's item p. Blocks of at most 64 items, the common
    case, are read for all rows at once as bit_windows. A wider block packs
    its own columns and reads each row with int.from_bytes.
    """
    rows = hits.shape[0]
    if starts is None:
        starts = list(itertools.accumulate(widths, initial=0))
    narrow = [(lo, w) for lo, w in zip(starts, widths) if 0 < w <= 64]
    # a list per narrow block; a matrix of wide blocks only is not packed whole
    values = iter(bit_windows(hits, *zip(*narrow)).T.tolist() if narrow else ())
    masks = []
    for lo, w in zip(starts, widths):
        if w > 64:
            packed = np.packbits(hits[:, lo:lo + w], axis=1, bitorder="little")
            raw, stride = packed.tobytes(), packed.shape[1]
            masks.append([int.from_bytes(raw[at:at + stride], "little")
                          for at in range(0, len(raw), stride)])
        else:
            masks.append(next(values) if w else [0] * rows)
    return masks


def bit_windows(hits: np.ndarray, starts: Sequence[int], widths: Sequence[int]) -> np.ndarray:
    """Rows x windows uint64: window j of a row is its widths[j] columns from starts[j].

    Column starts[j] + p is bit p, and the bits past widths[j] are 0; each
    width is 1 to 64. hits packs into one little-endian bit stream per row,
    and a window takes the 64 stream bits from its first column with two
    shifts of two adjacent stream words. Rows go in chunks, so the
    temporaries stay near _WINDOW_CELLS words.
    """
    lo = np.asarray(starts, np.uint64)
    mask = ~np.uint64(0) >> 64 - np.asarray(widths, np.uint64)
    first = (lo // 64).astype(np.intp)
    packed = np.packbits(hits, axis=1, bitorder="little")
    # each row's stream, with a zero word past the last
    stream = np.zeros((hits.shape[0], hits.shape[1] // 64 + 2), "<u8")
    stream.view(np.uint8)[:, :packed.shape[1]] = packed
    out = np.empty((hits.shape[0], lo.size), "<u8")
    step = max(1, _WINDOW_CELLS // max(1, lo.size))
    for row in range(0, out.shape[0], step):
        block = stream[row:row + step]
        # the next word shifts in two steps, so an aligned window's shift stays below 64
        out[row:row + step] = (block[:, first] >> lo % 64
                               | block[:, first + 1] << 1 << 63 - lo % 64) & mask
    return out


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
    first bad function.

    oracles lists the distinct oracles (by identity) in first-appearance
    order, so evaluators can handle a shared oracle once. The states are
    the (agent, function) pairs in agent then function order, and the state
    table holds, per state, state_oracle (its oracle's position in oracles,
    intp) and state_weight (its weight as float64); agent i's states are
    state_offsets[i]:state_offsets[i + 1] (k + 1 entries, intp). hits and
    starts are seal_incidences(oracles, n): the one incidence matrix, whose
    first n rows the kernel and validate read, and each oracle's first
    column in it.
    """

    n: int
    agents: tuple
    epsilon: float = field(init=False)
    W: float = field(init=False)
    oracles: tuple = field(init=False, repr=False, compare=False)
    state_oracle: np.ndarray = field(init=False, repr=False, compare=False)
    state_weight: np.ndarray = field(init=False, repr=False, compare=False)
    state_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    hits: np.ndarray = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    # The selection kernel's root state, built on the first run and kept so
    # every later run starts from a copy of it; see algorithms._Kernel.start.
    _kernel_root = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be at least 0, got {self.n}")
        seen = set()
        oracles: list = []
        position: dict = {}  # id(oracle) -> its index in oracles
        state_oracle, weights, offsets = [], [], [0]
        for agent in self.agents:
            if agent.id in seen:
                raise ValueError(f"duplicate agent id {agent.id}")
            seen.add(agent.id)
            for f, w in agent.functions:
                at = position.get(id(f))
                if at is None:  # each oracle is checked once, where it first appears
                    if not isinstance(f, SetSystemOracle):
                        raise TypeError(
                            f"agent {agent.id}: {type(f).__name__} is not a SetSystemOracle"
                        )
                    if f.denominator > MAX_DENOMINATOR:
                        raise ValueError(
                            f"agent {agent.id}: denominator {f.denominator} exceeds 2**53"
                        )
                    at = position[id(f)] = len(oracles)
                    oracles.append(f)
                state_oracle.append(at)
                weights.append(w)
            offsets.append(len(state_oracle))
        hits, starts = seal_incidences(oracles, self.n)
        object.__setattr__(self, "hits", hits)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "oracles", tuple(oracles))
        eps = min((f.min_nonzero_marginal for f in oracles), default=1.0)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "W", max((a.total_weight() for a in self.agents), default=0.0))
        object.__setattr__(self, "state_oracle", np.array(state_oracle, np.intp))
        object.__setattr__(self, "state_weight", np.array(weights, float))
        object.__setattr__(self, "state_offsets", np.array(offsets, np.intp))

    def agent_by_id(self, agent_id: int) -> Agent:
        for agent in self.agents:
            if agent.id == agent_id:
                return agent
        raise KeyError(f"unknown agent id {agent_id}")


def per_agent(offsets: np.ndarray, values: list) -> tuple:
    """values, one per state, as a tuple per agent of its states' values in order.

    offsets is an Instance's state_offsets: agent i's states are
    offsets[i]:offsets[i + 1].
    """
    bounds = offsets.tolist()
    return tuple(tuple(values[lo:hi]) for lo, hi in itertools.pairwise(bounds))


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
    times = per_agent(inst.state_offsets, np.array(by_oracle)[inst.state_oracle].tolist())
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

    Every function is checked exactly for f(U) = 1, on the items that rows
    1..n of the instance's matrix mark; monotonicity and submodularity hold
    by construction of SetSystemOracle. Weights so large that a cost or a
    pick's score could overflow are one error.
    """
    violations = []
    # per distinct oracle, the items some element hits: its block of one row
    full = [rows[0] for rows in block_masks(inst.hits[:inst.n].any(axis=0)[None],
                                            [len(f.item_weights) for f in inst.oracles],
                                            inst.starts.tolist())]
    # A cost sums weight * cover time with times <= n, so each cost and their
    # sum are at most n * total. A pick term is weight * (gain / den) /
    # residual, with gain / den <= 1 and residual >= 1 / den >= 2**-53, so a
    # score, or the screen's approx + slack, is at most 2**54 * total.
    total = sequential_sum(w for agent in inst.agents for _, w in agent.functions)
    if not math.isfinite(2.0**54 * max(inst.n, 1) * total):
        violations.append(Violation(SEVERITY_ERROR, "instance", "weights too large: "
                                    f"2**54 * n * (sum of weights) overflows (sum={total})"))

    positions = per_agent(inst.state_offsets, inst.state_oracle.tolist())
    for agent, index in zip(inst.agents, positions):
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


def errors_only(violations: Iterable[Violation]) -> list:
    return [v for v in violations if v.severity == SEVERITY_ERROR]
