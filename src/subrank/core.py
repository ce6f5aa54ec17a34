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

from dataclasses import dataclass, field
from operator import itemgetter, mul
from typing import Iterable, Sequence

import numpy as np

# An ordering of the ground set: a tuple containing each of 1..n exactly once.
Permutation = tuple

#: Largest accepted denominator. Numerators up to it are exact in float64,
#: which the vectorised selection kernel relies on.
MAX_DENOMINATOR = 2**53


class SetSystemOracle:
    """Monotone submodular function num(union of element masks) / denominator.

    A family sets item_weights (the integer weight of each item position),
    the fixed denominator and _masks (element id -> int bitmask over item
    positions; absent elements hit nothing), and defines numerator(mask):
    the summed item_weights of the set bits, possibly capped at the
    denominator. So while a function is uncovered, adding one element
    raises the numerator by exactly the weights of the items it newly hits,
    which is what the selection kernel computes. Monotonicity and
    submodularity follow, and min_nonzero_marginal, the per-function
    epsilon, is the smallest item weight over the denominator.
    """

    denominator: int = 1
    item_weights: tuple = ()
    _masks: dict

    def element_mask(self, e: int) -> int:
        return self._masks.get(e, 0)

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
        """uint8 matrix (n, len(item_weights)): row e - 1 marks the items e hits.

        Built once per ground-set size and kept on the oracle, so every run
        on an instance that holds it reuses the matrix. A family that has
        the matrix already may seed the cache by setting _incidence.
        """
        cached = self.__dict__.get("_incidence")
        if cached is None or cached.shape[0] != n:
            width = len(self.item_weights)
            nbytes = (width + 7) // 8
            raw = b"".join(self.element_mask(e).to_bytes(nbytes, "little") for e in range(1, n + 1))
            bits = np.unpackbits(
                np.frombuffer(raw, dtype=np.uint8).reshape(n, nbytes), axis=1, bitorder="little"
            )
            cached = np.ascontiguousarray(bits[:, :width])
            object.__setattr__(self, "_incidence", cached)
        return cached


@dataclass(frozen=True)
class Agent:
    """One agent: an id in 1..k and a list of (oracle, weight) pairs."""

    id: int
    functions: tuple  # tuple of (SetSystemOracle, float)

    def total_weight(self) -> float:
        return sum(w for _, w in self.functions)


@dataclass(frozen=True)
class Instance:
    """A shared ground set {1..n} plus the agents ranking it.

    epsilon (the smallest min_nonzero_marginal, or 1.0) and W (the largest
    agent total weight, or 0.0) are derived from the agents. Raises
    TypeError on a function that is not a SetSystemOracle, and ValueError
    on duplicate agent ids or a denominator above MAX_DENOMINATOR.

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

    def __post_init__(self):
        seen = set()
        oracles: list = []
        position: dict = {}  # id(oracle) -> its index in oracles
        index = []
        for agent in self.agents:
            if agent.id in seen:
                raise ValueError(f"duplicate agent id {agent.id}")
            seen.add(agent.id)
            agent_index = []
            for f, _ in agent.functions:
                if not isinstance(f, SetSystemOracle):
                    raise TypeError(
                        f"agent {agent.id}: {type(f).__name__} is not a SetSystemOracle"
                    )
                if f.denominator > MAX_DENOMINATOR:
                    raise ValueError(
                        f"agent {agent.id}: denominator {f.denominator} exceeds 2**53"
                    )
                if id(f) not in position:
                    position[id(f)] = len(oracles)
                    oracles.append(f)
                agent_index.append(position[id(f)])
            index.append(tuple(agent_index))
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
    mask = 0
    if f.mask_covers(mask):
        return 0
    for t, e in enumerate(pi, start=1):
        mask |= f.element_mask(e)
        if f.mask_covers(mask):
            return t
    raise ValueError("function never reaches the unit threshold on this permutation")


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


def cover_report(inst: Instance, pi: Sequence[int]) -> CoverReport:
    """Cover times and costs of every agent under pi.

    Each distinct oracle (by identity) is timed once, however many agents
    hold it. Raises ValueError unless pi is a permutation of 1..n.
    """
    _require_permutation(inst, pi)
    if not inst.agents:
        raise ValueError("instance has no agents")
    by_oracle = [cover_time(f, pi) for f in inst.oracles]
    times = tuple(tuple(map(by_oracle.__getitem__, index)) for index in inst.oracle_index)
    # an agent's cost sums weight * time over its functions in order
    costs = [
        sum(map(mul, map(itemgetter(1), agent.functions), agent_times))
        for agent, agent_times in zip(inst.agents, times)
    ]
    return CoverReport(
        cover_times=times,
        agent_costs=tuple(costs),
        minmax=max(costs),
        average=sum(costs) / len(costs),
    )


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

    Every function is checked exactly for f(U) = 1; monotonicity and
    submodularity hold by construction of SetSystemOracle.
    """
    violations = []
    universe = list(range(1, inst.n + 1))

    for agent in inst.agents:
        if not agent.functions:
            violations.append(
                Violation(SEVERITY_ERROR, f"agent {agent.id}", "agent has no functions")
            )
        for j, (f, w) in enumerate(agent.functions, start=1):
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
            if not f.covers(universe):
                violations.append(
                    Violation(SEVERITY_ERROR, where, f"f(U) != 1 (f(U)={f.evaluate(universe)})")
                )

    return violations


def errors_only(violations: Iterable[Violation]) -> list:
    return [v for v in violations if v.severity == SEVERITY_ERROR]
