"""Min-max submodular ranking for multiple agents.

A shared ground set of elements must be ordered once for everyone. Each
agent holds a weighted collection of monotone submodular functions over
the elements; a function's cover time is the first prefix of the ordering
at which it reaches full value, and an agent's cost is its weighted sum of
cover times. The library builds instances (coverage systems, decision-table
reductions, set systems with coverage requirements), ranks them with four
algorithms (random, greedy, normalized greedy, balanced adaptive greedy),
solves the special set-cover variant via an LP with knapsack-cover cuts and
randomized phase rounding, and reproduces the decision-table experiments
through a sweep harness and CLI.
"""

from subrank.core import (
    Agent,
    CoverReport,
    Instance,
    Permutation,
    SetSystemOracle,
    agent_cost,
    cover_report,
    cover_time,
    is_permutation,
    objective,
    validate,
)
from subrank.functions import (
    CoverageFunction,
    GmscSet,
    OdtTable,
    SingletonFunction,
    gmsc_function,
    hard_family,
    odt_function,
    random_coverage_instance,
    singleton_function,
)
from subrank.algorithms import (
    BagConfig,
    BruteForceResult,
    Run,
    balanced_adaptive_greedy,
    brute_force_opt,
    greedy,
    normalized_greedy,
    random_order,
)

__all__ = [
    "Agent",
    "BagConfig",
    "BruteForceResult",
    "CoverReport",
    "CoverageFunction",
    "GmscSet",
    "Instance",
    "OdtTable",
    "Permutation",
    "Run",
    "SetSystemOracle",
    "SingletonFunction",
    "agent_cost",
    "balanced_adaptive_greedy",
    "brute_force_opt",
    "cover_report",
    "cover_time",
    "gmsc_function",
    "greedy",
    "hard_family",
    "is_permutation",
    "normalized_greedy",
    "objective",
    "odt_function",
    "random_coverage_instance",
    "random_order",
    "singleton_function",
    "validate",
]

__version__ = "0.1.0"
