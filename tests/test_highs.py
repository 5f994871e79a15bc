"""The HiGHS adapter behind exact OPT (:mod:`repro.offline.highs`).

Exact OPT reaches HiGHS through the binding scipy bundles, so a process
that imports the CLI and solves OPT never loads ``scipy.optimize`` or
``scipy.sparse``.  These tests pin that, and that the adapter is a
drop-in for ``scipy.optimize.milp``: bit-identical ``x`` on every model
of the layout matrix, the same OPT when the binding is missing and the
fallback runs, and a ``RuntimeError`` (never an ``x``) on every status
but proven optimality.
"""

import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest

from repro.offline import highs
from repro.offline.crossbar_timegraph import CrossbarOptModel
from repro.offline.opt import cioq_opt, crossbar_opt
from repro.offline.timegraph import CIOQOptModel
from test_opt_model_layout import CASES, _instances, _models

ROOT = pathlib.Path(__file__).resolve().parent.parent

needs_binding = pytest.mark.skipif(
    highs.load_binding() is None,
    reason="this scipy bundles no HiGHS binding; OPT uses scipy.optimize",
)


def _arrays(model):
    """The positional arguments ``solve`` hands to ``milp``."""
    model.build()
    return (model.objective, model.indptr, model.indices, model.data,
            model.row_lb, model.row_ub, model.col_lb, model.col_ub)


#: One integral column ``x`` in [0, 1] under the row ``x >= 2``.
INFEASIBLE = (np.array([-1.0]), np.array([0, 1]), np.array([0]),
              np.array([1.0]), np.array([2.0]), np.array([np.inf]),
              np.array([0.0]), np.array([1.0]))


def _run(script):
    return subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=120,
    )


SCIPY_FREE = r"""
import sys
import repro.cli
assert "scipy" not in sys.modules, "scipy imported by repro.cli"
from repro.offline import cioq_opt, crossbar_opt
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
trace = BernoulliTraffic(3, 3, load=1.3).generate(8, seed=0)
assert cioq_opt(trace, config).benefit > 0
assert crossbar_opt(trace, config).benefit > 0
loaded = [m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules]
assert not loaded, f"exact OPT imported {loaded}"
from repro.offline.highs import BINDING
assert BINDING in sys.modules
print("OK")
"""


@needs_binding
def test_cli_and_exact_opt_never_import_scipy_optimize():
    proc = _run(SCIPY_FREE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "OK\n"


ADAPTER_THEN_SCIPY = r"""
import sys
import numpy as np
from repro.offline.highs import BINDING, milp
x = milp(np.array([-1.0, -2.0]), np.array([0, 1, 2]), np.array([0, 0]),
         np.array([1.0, 1.0]), np.array([-np.inf]), np.array([1.0]),
         np.zeros(2), np.ones(2))
assert x.tolist() == [0.0, 1.0], x
core = sys.modules[BINDING]
import scipy.optimize
from scipy.optimize import Bounds, LinearConstraint
res = scipy.optimize.milp(np.array([-1.0, -2.0]), integrality=np.ones(2),
                          bounds=Bounds(0, 1),
                          constraints=LinearConstraint([[1, 1]], -np.inf, 1))
assert res.status == 0 and res.x.tolist() == [0.0, 1.0], res
assert sys.modules[BINDING] is core
print("OK")
"""


@needs_binding
def test_scipy_optimize_milp_works_after_the_adapter():
    """The binding registers under its canonical name, so a later
    ``import scipy.optimize`` reuses it (``repro constants`` does)."""
    proc = _run(ADAPTER_THEN_SCIPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "OK\n"


@pytest.fixture(scope="module")
def layout_models():
    return dict(_models())


@pytest.mark.parametrize("case", CASES)
def test_adapter_matches_scipy_milp_bitwise(case, layout_models):
    args = _arrays(layout_models[case])
    assert highs.milp(*args).tobytes() == highs.scipy_milp(*args).tobytes()


def _instance(name):
    """``(trace, config)`` of the layout-matrix instance ``name``."""
    return next((t, c) for n, t, c in _instances() if n == name)


def _count_fallback(monkeypatch):
    """Return the list each ``scipy_milp`` call appends to."""
    calls = []
    fallback = highs.scipy_milp

    def counted(*args):
        calls.append(args)
        return fallback(*args)

    monkeypatch.setattr(highs, "scipy_milp", counted)
    return calls


def _no_binding(monkeypatch):
    """Hide the binding; return the list the fallback appends to."""
    monkeypatch.setattr(highs, "load_binding", lambda: None)
    return _count_fallback(monkeypatch)


FALLBACK_INSTANCES = ("grid-s1-c2-weighted-0", "appmix-qos")


@pytest.mark.parametrize("name", FALLBACK_INSTANCES)
@pytest.mark.parametrize("opt", [cioq_opt, crossbar_opt],
                         ids=["cioq", "crossbar"])
def test_fallback_returns_the_same_opt(name, opt, monkeypatch):
    trace, config = _instance(name)
    direct = opt(trace, config)
    calls = _no_binding(monkeypatch)
    fallback = opt(trace, config)
    assert len(calls) == 1
    assert fallback.benefit == direct.benefit
    assert fallback.accepted_pids == direct.accepted_pids


#: The names ``milp`` takes from the binding.
MILP_NAMES = ("HighsLp", "MatrixFormat", "HighsVarType", "_Highs",
              "HighsOptions", "HighsStatus", "HighsModelStatus")


@needs_binding
@pytest.mark.parametrize("missing", MILP_NAMES)
def test_binding_with_another_api_falls_back(missing, monkeypatch):
    """A scipy whose binding lacks a name ``milp`` uses solves through
    ``scipy.optimize.milp`` instead of raising ``AttributeError``."""
    args = _arrays(CIOQOptModel(*_instance("grid-s1-c1-weighted-0")))
    expected = highs.scipy_milp(*args)
    core = highs.load_binding()
    stub = types.ModuleType(highs.BINDING)
    for name in MILP_NAMES:
        if name != missing:
            setattr(stub, name, getattr(core, name))
    monkeypatch.setitem(sys.modules, highs.BINDING, stub)
    calls = _count_fallback(monkeypatch)
    assert highs.milp(*args).tobytes() == expected.tobytes()
    assert len(calls) == 1


@needs_binding
def test_infeasible_model_raises_through_the_binding():
    with pytest.raises(RuntimeError, match="Infeasible"):
        highs.milp(*INFEASIBLE)


def test_infeasible_model_raises_through_the_fallback(monkeypatch):
    calls = _no_binding(monkeypatch)
    with pytest.raises(RuntimeError, match="status=2"):
        highs.milp(*INFEASIBLE)
    assert len(calls) == 1


#: Statuses with no optimality proof; under the first three HiGHS may
#: still hold a feasible incumbent, which ``milp`` would return.
NOT_OPTIMAL = ("kTimeLimit", "kIterationLimit", "kSolutionLimit",
               "kInterrupt", "kInfeasible", "kUnknown")


@needs_binding
@pytest.mark.parametrize("status", NOT_OPTIMAL)
@pytest.mark.parametrize("cls", [CIOQOptModel, CrossbarOptModel],
                         ids=["cioq", "crossbar"])
def test_solve_raises_unless_the_binding_proves_optimality(
        status, cls, monkeypatch):
    core = highs.load_binding()
    reported = getattr(core.HighsModelStatus, status)

    class Highs(core._Highs):
        def getModelStatus(self):
            return reported

    fake = types.SimpleNamespace(**{**vars(core), "_Highs": Highs})
    monkeypatch.setattr(highs, "load_binding", lambda: fake)
    trace, config = _instance("grid-s1-c1-weighted-0")
    with pytest.raises(RuntimeError, match="HiGHS"):
        cls(trace, config).solve()


@pytest.mark.parametrize("status", [1, 2, 3, 4])
@pytest.mark.parametrize("cls", [CIOQOptModel, CrossbarOptModel],
                         ids=["cioq", "crossbar"])
def test_solve_raises_unless_scipy_milp_reports_success(
        status, cls, monkeypatch):
    import scipy.optimize

    def not_optimal(c, **kwargs):
        # Status 1 (a time or iteration limit) may come with an x.
        return scipy.optimize.OptimizeResult(
            status=status, message="not optimal", x=np.zeros(c.size))

    _no_binding(monkeypatch)
    monkeypatch.setattr(scipy.optimize, "milp", not_optimal)
    trace, config = _instance("grid-s1-c1-weighted-0")
    with pytest.raises(RuntimeError, match=f"status={status}"):
        cls(trace, config).solve()
