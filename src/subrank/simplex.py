"""The LP solver behind the GMSC bound: HiGHS, as bundled with scipy.

An ``LpModel`` minimizes costs . x over x >= 0 and grows by blocks of rows
``lower <= A x <= upper``, each block given in compressed sparse row (CSR)
form: row starts, column indices and values. ``solve_dense_lp`` solves it
again after every block; HiGHS's dual simplex (Huangfu & Hall, Math. Prog.
Comp. 2018) then restarts from the last optimal basis, which is the
cutting-plane pattern of ``gmsc.solve_lp``. The name ``solve_dense_lp``
is kept for its callers; nothing here is dense.

Only scipy's compiled HiGHS module is loaded, on the first model, without
running ``scipy.optimize/__init__`` (which costs about 47 MB and 0.6 s).
It is registered under its own dotted name, so a later
``import scipy.optimize`` reuses it; a second copy of the module cannot be
loaded ("type ... is already registered"). The layout of scipy 1.17 is
assumed.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

# HighsModelStatus member name -> status; other statuses keep HiGHS's text
_STATUS_NAMES = {
    "kOptimal": OPTIMAL,
    "kInfeasible": INFEASIBLE,
    "kUnbounded": UNBOUNDED,
    "kIterationLimit": ITERATION_LIMIT,
}

HIGHS_MODULE = "scipy.optimize._highspy._core"


@dataclass
class LpResult:
    status: str
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int  # simplex iterations of this solve


def _highs_core():
    """scipy's HiGHS extension module, loaded once and shared with scipy.

    Raises ImportError naming the directory searched when the file is absent.
    """
    core = sys.modules.get(HIGHS_MODULE)
    if core is not None:
        return core
    scipy_spec = importlib.util.find_spec("scipy")  # locates without importing
    roots = scipy_spec.submodule_search_locations if scipy_spec is not None else None
    if not roots:
        raise ImportError("HiGHS solver not found: scipy is not installed")
    folder = os.path.join(roots[0], "optimize", "_highspy")
    paths = [os.path.join(folder, "_core" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"HiGHS solver not found: no _core extension module in {folder}")
    spec = importlib.util.spec_from_file_location(HIGHS_MODULE, path)
    core = importlib.util.module_from_spec(spec)
    sys.modules[HIGHS_MODULE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[HIGHS_MODULE]
        raise
    return core


class LpModel:
    """minimize costs . x subject to x >= 0 and the rows added so far."""

    def __init__(self, costs):
        core = _highs_core()
        self._core = core
        self._highs = core._Highs()
        self._require(self._highs.setOptionValue("output_flag", False), "setOptionValue")
        costs = np.asarray(costs, dtype=float)
        n = costs.size
        self._require(self._highs.addVars(n, np.zeros(n), np.full(n, core.kHighsInf)), "addVars")
        cols = np.flatnonzero(costs).astype(np.int32)
        self._require(self._highs.changeColsCost(cols.size, cols, costs[cols]), "changeColsCost")

    def add_rows(self, starts, indices, values, upper, lower=None) -> None:
        """Add the CSR block of rows lower <= a . x <= upper.

        Row i holds values[starts[i]:starts[i + 1]] at the columns
        indices[starts[i]:starts[i + 1]], the last row running to the end.
        lower defaults to no lower bound on any row.
        """
        upper = np.asarray(upper, dtype=float)
        if not upper.size:
            return
        lower = (np.full(upper.size, -self._core.kHighsInf) if lower is None
                 else np.asarray(lower, dtype=float))
        indices = np.asarray(indices, dtype=np.int32)
        self._require(
            self._highs.addRows(upper.size, lower, upper, indices.size,
                                np.asarray(starts, dtype=np.int32), indices,
                                np.asarray(values, dtype=float)),
            "addRows",
        )

    def _require(self, status, call: str) -> None:
        if status == self._core.HighsStatus.kError:
            raise ValueError(f"HiGHS {call} failed")


def solve_dense_lp(model: LpModel) -> LpResult:
    """Solve the model, warm-started from the basis of its previous solve.

    x is clipped at 0 (HiGHS meets bounds only within its tolerance); x and
    objective are None unless the status is OPTIMAL.
    """
    highs = model._highs
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    name = _STATUS_NAMES.get(status.name) or highs.modelStatusToString(status)
    if name != OPTIMAL:
        return LpResult(name, None, None, info.simplex_iteration_count)
    x = np.maximum(np.asarray(highs.getSolution().col_value), 0.0)
    return LpResult(OPTIMAL, x, float(info.objective_function_value),
                    info.simplex_iteration_count)
