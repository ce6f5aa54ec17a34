"""Instance model, cover-time semantics, and objective evaluation.

Ground set is ``{1..n}``. Each agent holds weighted monotone submodular
functions mapping element subsets to ``[0, 1]`` with full value 1 on the
whole ground set. All operations here are pure; instances are immutable
after construction and safe to share across parallel workers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

# Threshold slack for float-valued oracles. Set-system families override
# covers() with exact integer arithmetic and never consult this.
COVER_TOL = 1e-12

# An ordering of the ground set: a tuple containing each of 1..n exactly once.
Permutation = tuple


class FunctionOracle:
    """Monotone submodular set function on {1..n} with values in [0, 1].

    Subclasses implement evaluate(); min_nonzero_marginal is the analytic
    lower bound on any strict value increase (the per-function epsilon).
    """

    min_nonzero_marginal: float = 1.0

    def evaluate(self, subset: Iterable[int]) -> float:
        raise NotImplementedError

    def covers(self, subset: Iterable[int]) -> bool:
        """Whether the subset reaches the unit threshold."""
        return self.evaluate(subset) >= 1.0 - COVER_TOL


@dataclass(frozen=True)
class Agent:
    """One agent: an id in 1..k and a list of (oracle, weight) pairs."""

    id: int
    functions: tuple  # tuple of (FunctionOracle, float)

    def total_weight(self) -> float:
        return sum(w for _, w in self.functions)


@dataclass(frozen=True)
class Instance:
    """A shared ground set {1..n} plus the agents ranking it.

    epsilon and W are derived from the agents when not given explicitly:
    epsilon is the minimum oracle-reported nonzero marginal over all
    functions, W the maximum per-agent total weight.
    """

    n: int
    agents: tuple
    epsilon: float = field(default=None)  # type: ignore[assignment]
    W: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", derived_epsilon(self.agents))
        if self.W is None:
            object.__setattr__(self, "W", derived_max_weight(self.agents))

    def agent_by_id(self, agent_id: int) -> Agent:
        for agent in self.agents:
            if agent.id == agent_id:
                return agent
        raise KeyError(f"unknown agent id {agent_id}")

    def all_functions(self):
        """Yield (agent, oracle, weight) over every function in the instance."""
        for agent in self.agents:
            for oracle, weight in agent.functions:
                yield agent, oracle, weight


def derived_epsilon(agents: Sequence[Agent]) -> float:
    marginals = [f.min_nonzero_marginal for a in agents for f, _ in a.functions]
    return min(marginals) if marginals else 1.0


def derived_max_weight(agents: Sequence[Agent]) -> float:
    totals = [a.total_weight() for a in agents]
    return max(totals) if totals else 0.0


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


def normalized_gain_sum(f: FunctionOracle, order: Sequence[int]) -> float:
    """Telescoping sum of per-step gains over the residual to coverage.

    Along the prefix chain of order, accumulates
    (f(S_t) - f(S_{t-1})) / (1 - f(S_{t-1})) over the steps where the
    previous prefix is still uncovered. For any monotone function with
    minimum nonzero marginal eps this never exceeds 1 + ln(1/eps).
    """
    total = 0.0
    prefix: set = set()
    value = f.evaluate(prefix)
    covered = f.covers(prefix)
    for e in order:
        if covered:
            break
        prefix.add(e)
        new_value = f.evaluate(prefix)
        total += (new_value - value) / (1.0 - value)
        value = new_value
        covered = f.covers(prefix)
    return total


def cover_time(f: FunctionOracle, pi: Sequence[int]) -> int:
    """Smallest t such that the first t elements of pi reach the threshold.

    Returns 0 when the empty set already covers. Requires f to reach 1 on
    the full ground set; raises otherwise.
    """
    prefix = set()
    if f.covers(prefix):
        return 0
    for t, e in enumerate(pi, start=1):
        prefix.add(e)
        if f.covers(prefix):
            return t
    raise ValueError("function never reaches the unit threshold on this permutation")


def agent_cost(inst: Instance, agent_id: int, pi: Sequence[int]) -> float:
    """Total weighted cover time of one agent under permutation pi."""
    agent = inst.agent_by_id(agent_id)
    return sum(w * cover_time(f, pi) for f, w in agent.functions)


def objective(inst: Instance, pi: Sequence[int], mode: str = "minmax") -> float:
    """Aggregate agent costs: the max over agents, or their average.

    Raises ValueError unless pi is a permutation of 1..n.
    """
    _require_permutation(inst, pi)
    if not inst.agents:
        raise ValueError("instance has no agents")
    costs = [agent_cost(inst, a.id, pi) for a in inst.agents]
    if mode == "minmax":
        return max(costs)
    if mode == "average":
        return sum(costs) / len(costs)
    raise ValueError(f"unknown objective mode {mode!r}")


@dataclass(frozen=True)
class CoverReport:
    """Full evaluation of a permutation against an instance."""

    cover_times: tuple  # per agent: tuple of per-function cover times
    agent_costs: tuple
    minmax: float
    average: float


def cover_report(inst: Instance, pi: Sequence[int]) -> CoverReport:
    """Raises ValueError unless pi is a permutation of 1..n."""
    _require_permutation(inst, pi)
    times = []
    costs = []
    for agent in inst.agents:
        agent_times = tuple(cover_time(f, pi) for f, _ in agent.functions)
        times.append(agent_times)
        costs.append(sum(w * t for (_, w), t in zip(agent.functions, agent_times)))
    if not costs:
        raise ValueError("instance has no agents")
    return CoverReport(
        cover_times=tuple(times),
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


def validate(inst: Instance, spot_checks: int = 50, seed: int = 0) -> list:
    """Check instance invariants; returns violations, never raises.

    Exact set-system families are checked exactly for f(U) = 1. Other oracle
    types get randomized monotonicity/submodularity spot checks on random
    (S, S', e) triples.
    """
    from subrank.functions import SetSystemOracle

    violations = []
    universe = list(range(1, inst.n + 1))
    rng = random.Random(seed)

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
            full = f.evaluate(universe)
            exact = isinstance(f, SetSystemOracle)
            if (exact and not f.covers(universe)) or (
                not exact and abs(full - 1.0) > COVER_TOL
            ):
                violations.append(
                    Violation(SEVERITY_ERROR, where, f"f(U) != 1 (f(U)={full})")
                )
            if not exact:
                violations.extend(
                    _spot_check(f, universe, where, rng, spot_checks)
                )

    eps = derived_epsilon(inst.agents)
    if not math.isclose(inst.epsilon, eps, rel_tol=0, abs_tol=1e-12):
        violations.append(
            Violation(
                SEVERITY_ERROR,
                "instance",
                f"epsilon={inst.epsilon} disagrees with function minimum {eps}",
            )
        )
    max_w = derived_max_weight(inst.agents)
    if not math.isclose(inst.W, max_w, rel_tol=0, abs_tol=1e-12):
        violations.append(
            Violation(
                SEVERITY_ERROR,
                "instance",
                f"W={inst.W} disagrees with max agent total {max_w}",
            )
        )
    return violations


def _spot_check(f: FunctionOracle, universe: list, where: str, rng, trials: int):
    """Randomized monotone/submodular checks for oracles without exact structure."""
    found = []
    for _ in range(trials):
        small = set(e for e in universe if rng.random() < 0.4)
        large = small | set(e for e in universe if rng.random() < 0.3)
        outside = [e for e in universe if e not in large]
        v_small, v_large = f.evaluate(small), f.evaluate(large)
        if v_small > v_large + COVER_TOL:
            found.append(
                Violation(SEVERITY_ERROR, where, "monotonicity violated on random pair")
            )
            break
        if outside:
            e = rng.choice(outside)
            gain_small = f.evaluate(small | {e}) - v_small
            gain_large = f.evaluate(large | {e}) - v_large
            if gain_small < gain_large - COVER_TOL:
                found.append(
                    Violation(SEVERITY_ERROR, where, "submodularity violated on random triple")
                )
                break
    return found


def errors_only(violations: Iterable[Violation]) -> list:
    return [v for v in violations if v.severity == SEVERITY_ERROR]
