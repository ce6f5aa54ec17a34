"""The HiGHS wrapper and the GMSC bound against scipy's public linprog."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linprog

from subrank.gmsc import gmsc_sets, random_gmsc_instance, solve_lp
from subrank.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpModel,
    solve_dense_lp,
)


def reference(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None)):
    return linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                   bounds=bounds, method="highs")


def csr(A):
    """(starts, indices, values) of the nonzeros of A, row by row."""
    A = np.asarray(A, dtype=float)
    rows, indices = np.nonzero(A)
    starts = np.searchsorted(rows, np.arange(A.shape[0]))
    return starts, indices, A[rows, indices]


def model(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    m = LpModel(np.asarray(c, dtype=float))
    if A_eq is not None:
        m.add_rows(*csr(A_eq), upper=b_eq, lower=b_eq)
    if A_ub is not None:
        m.add_rows(*csr(A_ub), upper=b_ub)
    return m


@pytest.mark.parametrize("seed", range(25))
def test_agrees_with_reference_on_random_bounded_lps(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    m_ub = int(rng.integers(1, 10))
    m_eq = int(rng.integers(0, 3))
    A_ub = rng.normal(size=(m_ub, n))
    x0 = rng.uniform(0, 2, n)
    b_ub = A_ub @ x0 + rng.uniform(0.1, 1.0, m_ub)
    A_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    b_eq = (A_eq @ x0) if m_eq else None
    A_ub = np.vstack([A_ub, np.ones(n)])  # keep the region bounded
    b_ub = np.concatenate([b_ub, [50.0]])
    c = rng.normal(size=n)

    mine = solve_dense_lp(model(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq))
    ref = reference(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    assert ref.success and mine.status == OPTIMAL
    assert mine.objective == pytest.approx(ref.fun, abs=1e-6)
    # returned point must itself be feasible
    assert np.all(mine.x >= 0.0)
    assert np.all(A_ub @ mine.x <= b_ub + 1e-7)
    if A_eq is not None:
        assert np.allclose(A_eq @ mine.x, b_eq, atol=1e-7)


def test_degenerate_transportation_problem():
    c = np.array([4.0, 3.0, 2.0, 5.0, 1.0, 6.0])
    A_eq = np.array(
        [
            [1, 1, 1, 0, 0, 0],
            [0, 0, 0, 1, 1, 1],
            [1, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 1.0],
        ]
    )
    b_eq = np.array([1.0, 1.0, 0.6, 0.7, 0.7])
    mine = solve_dense_lp(model(c, A_eq=A_eq, b_eq=b_eq))
    ref = reference(c, A_eq=A_eq, b_eq=b_eq)
    assert mine.status == OPTIMAL
    assert mine.objective == pytest.approx(ref.fun, abs=1e-9)


def test_detects_infeasible():
    res = solve_dense_lp(
        model(np.ones(2), A_eq=[[1.0, 1.0]], b_eq=[1.0], A_ub=[[1.0, 1.0]], b_ub=[-2.0])
    )
    assert res.status == INFEASIBLE
    assert res.x is None and res.objective is None


def test_detects_unbounded():
    res = solve_dense_lp(model([-1.0, 0.0], A_ub=[[0.0, 1.0]], b_ub=[1.0]))
    assert res.status == UNBOUNDED
    assert res.x is None and res.objective is None


def test_redundant_equalities_are_dropped():
    # second equality row repeats the first
    res = solve_dense_lp(model([1.0, 2.0], A_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0]))
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0)


def test_zero_objective_feasibility_problem():
    res = solve_dense_lp(model([0.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[1.0]))
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(0.0)


def test_rows_added_after_a_solve_match_a_fresh_model():
    # min -x0 - x1 over x0 + 2 x1 <= 4, then cut with x0 <= 1
    grown = model([-1.0, -1.0], A_ub=[[1.0, 2.0]], b_ub=[4.0])
    first = solve_dense_lp(grown)
    assert first.status == OPTIMAL and first.objective == pytest.approx(-4.0)
    grown.add_rows([0], [0], [1.0], upper=[1.0])
    again = solve_dense_lp(grown)
    fresh = solve_dense_lp(model([-1.0, -1.0], A_ub=[[1.0, 2.0], [1.0, 0.0]], b_ub=[4.0, 1.0]))
    assert again.status == fresh.status == OPTIMAL
    assert again.objective == pytest.approx(fresh.objective) == pytest.approx(-2.5)
    assert again.iterations > 0  # the cut row needs a dual simplex pivot


def final_cut_lp_t_star(inst, cuts):
    """T* of the last LP solve_lp solved, rebuilt densely from its cuts."""
    n = inst.n
    sets = list(gmsc_sets(inst))
    n_x, n_y = n * n, len(sets) * n
    size = n_x + n_y + 1
    T = size - 1

    def X(e, t):
        return (e - 1) * n + t - 1

    def Y(sid, t):
        return n_x + (sid - 1) * n + t - 1

    A_eq, b_eq, A_ub, b_ub = [], [], [], []
    for i in range(1, n + 1):
        slot, element = np.zeros(size), np.zeros(size)
        for j in range(1, n + 1):
            slot[X(j, i)] = 1.0
            element[X(i, j)] = 1.0
        A_eq += [slot, element]
        b_eq += [1.0, 1.0]
    for sid, _, _ in sets:
        for t in range(1, n):
            row = np.zeros(size)
            row[Y(sid, t)], row[Y(sid, t + 1)] = 1.0, -1.0
            A_ub.append(row)
            b_ub.append(0.0)
    for agent in range(1, len(inst.agents) + 1):
        row = np.zeros(size)
        owned = [sid for sid, owner, _ in sets if owner == agent]
        for sid in owned:
            for t in range(1, n + 1):
                row[Y(sid, t)] = -1.0
        row[T] = -1.0
        A_ub.append(row)
        b_ub.append(-float(n * len(owned)))
    members = {sid: s for sid, _, s in sets}
    for sid, t, subset in cuts:
        row = np.zeros(size)
        row[Y(sid, t)] = members[sid].K - len(subset)
        for e in members[sid].members - subset:
            for tp in range(1, t):
                row[X(e, tp)] = -1.0
        A_ub.append(row)
        b_ub.append(0.0)
    c = np.zeros(size)
    c[T] = 1.0
    bounds = [(0, 1)] * (n_x + n_y) + [(0, None)]
    res = reference(c, A_ub=np.array(A_ub), b_ub=b_ub, A_eq=np.array(A_eq), b_eq=b_eq,
                    bounds=bounds)
    assert res.success, res.message
    return res.fun


@pytest.mark.parametrize("n, k, m, seed", [(6, 2, 2, 0), (8, 3, 2, 1), (10, 3, 2, 2), (12, 4, 2, 3)])
def test_gmsc_bound_matches_linprog_on_final_cut_set(n, k, m, seed):
    inst = random_gmsc_instance(n, k, m, seed)
    sol = solve_lp(inst)
    assert sol.converged and sol.cuts
    assert sol.T_star == pytest.approx(final_cut_lp_t_star(inst, sol.cuts), rel=1e-6)


SOLVE = ("from subrank.gmsc import random_gmsc_instance, solve_lp; "
         "print(solve_lp(random_gmsc_instance(6, 2, 2, 4)).T_star)")
LINPROG = ("from scipy.optimize import linprog; "
           "print(linprog([1, 1], A_ub=[[-1, -1]], b_ub=[-2], method='highs').fun)")


@pytest.mark.parametrize("first, second", [(SOLVE, LINPROG), (LINPROG, SOLVE)])
def test_highs_module_is_shared_with_scipy_in_either_order(first, second):
    proc = subprocess.run([sys.executable, "-c", f"{first}\n{second}"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    outputs = proc.stdout.split()
    if first is LINPROG:
        outputs.reverse()
    assert [float(v) for v in outputs] == pytest.approx([5.5, 2.0])


def test_missing_extension_is_a_one_line_import_error(tmp_path):
    # a scipy package without optimize/_highspy, found first on the path
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PYTHONPATH")]))
    code = "import subrank.simplex as s; s.LpModel([1.0])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    folder = os.path.join(str(tmp_path), "scipy", "optimize", "_highspy")
    assert last == f"ImportError: HiGHS solver not found: no _core extension module in {folder}"
