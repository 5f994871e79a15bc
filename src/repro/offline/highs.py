"""Linear and integer programs solved by HiGHS through the binding scipy
bundles.

``scipy.optimize.milp`` hands HiGHS a CSC matrix through the pybind11
module ``scipy.optimize._highspy._core``.  Importing ``scipy.optimize``
to get there also loads ``scipy.sparse`` and most of the optimizer
stack, which costs a process far more than the binding itself.
:func:`milp` loads that one extension module from scipy's install
directory instead, on the first solve, and makes the calls ``milp``
makes: the same model, the only option ``milp`` sets
(``log_to_console = False``), and the same success test (HiGHS proves
optimality).  It returns the same ``x``, bit for bit.  :func:`lp`
solves the same model with every column continuous (the LP
relaxation), as ``milp`` does when called with ``integrality=0``, and
returns that call's ``x``, bit for bit.

The module is registered under its canonical name, so a later
``import scipy.optimize`` in the same process reuses it instead of
registering its pybind11 types a second time.  The binding is private
to scipy, and scipy is unpinned: a scipy without the file, or whose
binding lacks a name in :data:`API`, falls back to
``scipy.optimize.milp`` itself (:func:`scipy_milp`, :func:`scipy_lp`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType
from typing import Optional

import numpy as np

#: The binding's import name inside scipy.
BINDING = "scipy.optimize._highspy._core"

#: Every name :func:`milp` and :func:`lp` take from the binding.
API = ("HighsLp", "MatrixFormat", "HighsVarType", "_Highs", "HighsOptions",
       "HighsStatus", "HighsModelStatus")


def load_binding() -> Optional[ModuleType]:
    """scipy's HiGHS binding, loaded once; ``None`` if scipy has none or
    its binding lacks a name in :data:`API`."""
    core = sys.modules.get(BINDING) or _load_core()
    if core is None or not all(hasattr(core, name) for name in API):
        return None
    return core


def _load_core() -> Optional[ModuleType]:
    """Load the binding from scipy's install directory; ``None`` if the
    file is not there.

    ``find_spec`` locates scipy without running ``scipy/__init__``.
    """
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_highspy",
                                "_core" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(BINDING, path)
                core = importlib.util.module_from_spec(spec)
                sys.modules[BINDING] = core
                spec.loader.exec_module(core)
                return core
    return None


def milp(c: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
         data: np.ndarray, row_lb: np.ndarray, row_ub: np.ndarray,
         col_lb: np.ndarray, col_ub: np.ndarray) -> np.ndarray:
    """Minimize ``c @ x`` over integral ``x``; return the optimal ``x``.

    Subject to ``row_lb <= A @ x <= row_ub`` and ``col_lb <= x <=
    col_ub``, where ``A`` is the CSC matrix ``(indptr, indices, data)``
    with one row per ``row_lb`` entry.  Raises ``RuntimeError`` unless
    HiGHS proves the returned ``x`` optimal.
    """
    core = load_binding()
    if core is None:
        return scipy_milp(c, indptr, indices, data, row_lb, row_ub,
                          col_lb, col_ub)
    return _run(core, core.HighsVarType.kInteger, c, indptr, indices, data,
                row_lb, row_ub, col_lb, col_ub)


def lp(c: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
       data: np.ndarray, row_lb: np.ndarray, row_ub: np.ndarray,
       col_lb: np.ndarray, col_ub: np.ndarray) -> np.ndarray:
    """:func:`milp`'s model over real ``x`` (the LP relaxation).

    Returns the optimal vertex HiGHS ends on; raises
    ``RuntimeError`` unless HiGHS proves it optimal.
    """
    core = load_binding()
    if core is None:
        return scipy_lp(c, indptr, indices, data, row_lb, row_ub,
                        col_lb, col_ub)
    return _run(core, core.HighsVarType.kContinuous, c, indptr, indices,
                data, row_lb, row_ub, col_lb, col_ub)


def _run(core: ModuleType, var_type, c: np.ndarray, indptr: np.ndarray,
         indices: np.ndarray, data: np.ndarray, row_lb: np.ndarray,
         row_ub: np.ndarray, col_lb: np.ndarray,
         col_ub: np.ndarray) -> np.ndarray:
    """Solve with every column of type ``var_type`` through the binding."""
    n_col = c.size
    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n_col
    model.num_row_ = model.a_matrix_.num_row_ = row_lb.size
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.col_cost_ = c
    model.col_lower_ = col_lb
    model.col_upper_ = col_ub
    model.row_lower_ = row_lb
    model.row_upper_ = row_ub
    model.a_matrix_.start_ = indptr
    model.a_matrix_.index_ = indices
    model.a_matrix_.value_ = data
    model.integrality_ = [var_type] * n_col

    highs = core._Highs()
    options = core.HighsOptions()
    options.log_to_console = False
    error = core.HighsStatus.kError
    failed = (highs.passOptions(options) == error
              or highs.passModel(model) == error or highs.run() == error)
    status = highs.getModelStatus()
    if failed or status != core.HighsModelStatus.kOptimal:
        raise RuntimeError(f"HiGHS: {highs.modelStatusToString(status)}")
    return np.array(highs.getSolution().col_value)


def scipy_milp(c: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
               data: np.ndarray, row_lb: np.ndarray, row_ub: np.ndarray,
               col_lb: np.ndarray, col_ub: np.ndarray) -> np.ndarray:
    """:func:`milp` through ``scipy.optimize.milp`` (fallback, reference)."""
    return _scipy(np.ones(c.size), c, indptr, indices, data, row_lb, row_ub,
                  col_lb, col_ub)


def scipy_lp(c: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
             data: np.ndarray, row_lb: np.ndarray, row_ub: np.ndarray,
             col_lb: np.ndarray, col_ub: np.ndarray) -> np.ndarray:
    """:func:`lp` through ``scipy.optimize.milp`` (fallback, reference)."""
    return _scipy(0, c, indptr, indices, data, row_lb, row_ub, col_lb,
                  col_ub)


def _scipy(integrality, c: np.ndarray, indptr: np.ndarray,
           indices: np.ndarray, data: np.ndarray, row_lb: np.ndarray,
           row_ub: np.ndarray, col_lb: np.ndarray,
           col_ub: np.ndarray) -> np.ndarray:
    from scipy import optimize
    from scipy.sparse import csc_array

    A = csc_array((data, indices, indptr), shape=(row_lb.size, c.size))
    res = optimize.milp(
        c, integrality=integrality,
        bounds=optimize.Bounds(col_lb, col_ub),
        constraints=optimize.LinearConstraint(A, row_lb, row_ub))
    if res.status != 0:
        raise RuntimeError(f"scipy.optimize.milp: status={res.status} "
                           f"message={res.message!r}")
    return res.x
