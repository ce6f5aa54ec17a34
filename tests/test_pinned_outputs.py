"""Exact outputs of the rankers, pinned in ``tests/data/pinned_outputs.json``.

The golden was recorded from the scalar reference kernel; every float is
compared through its JSON repr, so any change in summation order or tie
breaking shows up as a failure. Regenerate only for an intended change of
outputs: ``PYTHONPATH=src python tests/test_pinned_outputs.py > tests/data/pinned_outputs.json``.
"""

import json
import os

from subrank.algorithms import (
    BagConfig,
    balanced_adaptive_greedy,
    brute_force_opt,
    greedy,
    normalized_greedy,
)
from subrank.core import cover_report
from subrank.functions import hard_family, random_coverage_instance
from subrank.gmsc import gmsc_schedule, random_gmsc_instance, solve_lp
from subrank.harness import build_instance, synthetic_table, tune_ratio

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "pinned_outputs.json")
RATIOS = (0.1, 0.35, 2.0 / 3.0, 0.9)
CELLS = ((3, 5, 0), (5, 8, 1), (8, 10, 2), (10, 12, 3), (4, 70, 4))  # (K, M, seed)
# (n, k, m) of the small coverage files that file-solve runs brute force on
BRUTE_SIZES = ((8, 4, 3), (8, 5, 2), (9, 4, 3), (9, 6, 2), (10, 4, 3), (10, 6, 2))
BRUTE_SEEDS = (0, 1)
GMSC_SIZES = ((12, 4), (16, 4), (16, 8))  # (n, k), two sets per agent
GMSC_SEEDS = (0, 1)
ROUNDING_SEEDS = range(20)


def _report(inst, perm):
    r = cover_report(inst, perm)
    return {
        "cover_times": r.cover_times,
        "agent_costs": r.agent_costs,
        "minmax": r.minmax,
        "average": r.average,
    }


def _outputs(inst):
    doc = {}
    for name, algo in (("greedy", greedy), ("ng", normalized_greedy)):
        perm = algo(inst)
        doc[name] = {"perm": perm, "report": _report(inst, perm)}
    for ratio in RATIOS:
        perm, trace = balanced_adaptive_greedy(inst, BagConfig(ratio=ratio))
        doc[f"bag@{ratio!r}"] = {
            "perm": perm,
            "picks": trace.pick_lines(),
            "report": _report(inst, perm),
        }
    doc["tune_ratio"] = {mode: tune_ratio(inst, mode=mode) for mode in ("minmax", "average")}
    return doc


def _brute(inst):
    # nodes is left out: a tighter bound may visit fewer
    result = brute_force_opt(inst)
    return {"permutation": result.permutation, "value": result.value, "optimal": result.optimal}


def _gmsc(inst):
    sol = solve_lp(inst)
    return {
        "T_star": repr(sol.T_star),
        "cuts": [[set_id, t, sorted(subset)] for set_id, t, subset in sol.cuts],
        "schedules": [gmsc_schedule(inst, s, sol)[0] for s in ROUNDING_SEEDS],
    }


def pinned_outputs() -> dict:
    table = synthetic_table(300, 16, 4, 7)
    doc = {f"odt K={K} M={M} seed={s}": _outputs(build_instance(table, K, M, s))
           for K, M, s in CELLS}
    doc["hard k=9"] = _outputs(hard_family(9))
    # hard_family's sub-unit weight makes brute force take its fractional path
    brute = {f"coverage n={n} k={k} m={m} seed={s}": random_coverage_instance(n, k, m, s)
             for n, k, m in BRUTE_SIZES for s in BRUTE_SEEDS}
    brute["hard k=4"] = hard_family(4)
    doc["brute"] = {name: _brute(inst) for name, inst in brute.items()}
    doc["gmsc"] = {f"n={n} k={k} m=2 seed={s}": _gmsc(random_gmsc_instance(n, k, 2, s))
                   for n, k in GMSC_SIZES for s in GMSC_SEEDS}
    return json.loads(json.dumps(doc))  # tuples -> lists, as in the golden


def test_outputs_match_pinned_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    current = pinned_outputs()
    assert current.keys() == golden.keys()
    for key in golden:
        assert current[key] == golden[key], key


if __name__ == "__main__":
    print(json.dumps(pinned_outputs(), indent=1, sort_keys=True))
