"""The HiGHS adapter behind exact OPT (:mod:`repro.offline.highs`).

Exact OPT reaches HiGHS through the binding scipy bundles, so a process
that imports the CLI and solves OPT never loads ``scipy.optimize`` or
``scipy.sparse``.  These tests pin that, and that the adapter is a
drop-in for ``scipy.optimize.milp``: bit-identical ``x`` on every model
of the layout matrix, for the integer program and for its LP relaxation
(``integrality=0``), the same OPT when the binding is missing and the
fallback runs, and a ``RuntimeError`` (never an ``x``) on every status
but proven optimality.

They also pin how a model solves: the LP relaxation first, the integer
program only when the LP vertex is fractional or a schedule is
extracted, and the same benefit, bit for bit, as the integer program
alone.
"""

import functools
import os
import pathlib
import random
import subprocess
import sys
import types

import numpy as np
import pytest
from _strategies import opt_instance_strategy

from repro.offline import highs, timegraph
from repro.offline.opt import cioq_opt, crossbar_opt
from repro.switch.packet import sequential_sum
from test_opt_model_layout import CASES, MODELS, _instances, _models

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


@pytest.fixture(scope="module")
def binding_x(layout_models):
    """``binding_x(case, "lp" | "milp")``: a layout model's ``x``
    through the binding, solved once for every test that reads it."""
    @functools.lru_cache(maxsize=None)
    def solve(case, solver):
        return getattr(highs, solver)(*_arrays(layout_models[case]))
    return solve


def _benefit(model, x):
    """The benefit ``model.solve()`` decodes from ``x``."""
    return sequential_sum(p.value for idx, p in enumerate(model.trace.packets)
                          if x[idx] > 0.5)


@pytest.mark.parametrize("case", CASES)
def test_adapter_matches_scipy_milp_bitwise(case, layout_models, binding_x):
    args = _arrays(layout_models[case])
    assert (binding_x(case, "milp").tobytes()
            == highs.scipy_milp(*args).tobytes())


@pytest.mark.parametrize("case", CASES)
def test_relaxation_matches_scipy_lp_bitwise(case, layout_models, binding_x):
    """:func:`highs.lp` returns ``scipy.optimize.milp(...,
    integrality=0)``'s vertex, so the fallback keeps the same vertices."""
    args = _arrays(layout_models[case])
    assert binding_x(case, "lp").tobytes() == highs.scipy_lp(*args).tobytes()


def _instance(name):
    """``(trace, config)`` of the layout-matrix instance ``name``."""
    return next((t, c) for n, t, c in _instances() if n == name)


def _counted(monkeypatch, module, name):
    """Wrap ``module.name``; return the list each call appends to."""
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _no_binding(monkeypatch):
    """Hide the binding; return the lists the LP and the MILP fallback
    calls append to."""
    monkeypatch.setattr(highs, "load_binding", lambda: None)
    return (_counted(monkeypatch, highs, "scipy_lp"),
            _counted(monkeypatch, highs, "scipy_milp"))


def _solver_calls(monkeypatch, model):
    """The lists ``model.solve()``'s LP and MILP calls append to."""
    return (_counted(monkeypatch, timegraph, "lp"),
            _counted(monkeypatch, sys.modules[type(model).__module__],
                     "milp"))


def _fractional(x):
    return np.abs(x - np.rint(x)).max() > timegraph.INTEGRALITY_TOL


FALLBACK_INSTANCES = ("grid-s1-c2-weighted-0", "appmix-qos")


@pytest.mark.parametrize("name", FALLBACK_INSTANCES)
@pytest.mark.parametrize("opt", [cioq_opt, crossbar_opt],
                         ids=["cioq", "crossbar"])
def test_fallback_returns_the_same_opt(name, opt, monkeypatch):
    """Both instances' LP vertices are integral: one LP fallback call,
    no MILP one."""
    trace, config = _instance(name)
    direct = opt(trace, config)
    lp_calls, milp_calls = _no_binding(monkeypatch)
    fallback = opt(trace, config)
    assert len(lp_calls) == 1
    assert len(milp_calls) == 0
    assert fallback.benefit == direct.benefit
    assert fallback.accepted_pids == direct.accepted_pids


#: Free-drain instances whose LP vertex is fractional, one per model.
FRACTIONAL = {"crossbar": "grid-s1-c2-unit-0", "cioq": "replicated-smoke"}


@pytest.mark.parametrize("kind", sorted(FRACTIONAL))
def test_fallback_runs_the_milp_on_a_fractional_vertex(kind, monkeypatch):
    trace, config = _instance(FRACTIONAL[kind])
    direct = MODELS[kind](trace, config).solve()
    lp_calls, milp_calls = _no_binding(monkeypatch)
    fallback = MODELS[kind](trace, config).solve()
    assert len(lp_calls) == 1
    assert len(milp_calls) == 1
    assert fallback.benefit == direct.benefit
    assert fallback.accepted_pids == direct.accepted_pids


#: ``(case, fractional)``: the LP vertices behind :data:`FRACTIONAL`,
#: and two integral ones.
VERTICES = [(f"{FRACTIONAL[kind]}/{kind}/free-drain", True)
            for kind in sorted(FRACTIONAL)] + [
    ("grid-s1-c1-weighted-0/cioq/free-drain", False),
    ("grid-s1-c1-weighted-0/crossbar/free-drain", False),
]


@pytest.mark.parametrize("case, fractional", VERTICES)
def test_solve_runs_the_milp_only_on_a_fractional_vertex(
        case, fractional, layout_models, binding_x, monkeypatch):
    model = layout_models[case]
    assert _fractional(binding_x(case, "lp")) == fractional, (
        f"{case}: this HiGHS ends the LP on another vertex; pick another "
        "instance for this branch")
    lp_calls, milp_calls = _solver_calls(monkeypatch, model)
    model.solve()
    assert len(lp_calls) == 1
    assert len(milp_calls) == int(fractional)


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("drain", ["forced", "free"])
def test_schedule_extraction_never_solves_the_relaxation(
        kind, drain, monkeypatch):
    """``extract_schedule=True`` decodes the integer program's schedule,
    which the theory replays were recorded against."""
    trace, config = _instance(FRACTIONAL["cioq"])
    horizon = (timegraph.default_horizon(trace, config)
               if drain == "forced" else None)
    model = MODELS[kind](trace, config, horizon=horizon)
    lp_calls, milp_calls = _solver_calls(monkeypatch, model)
    model.solve(extract_schedule=True)
    assert len(lp_calls) == 0
    assert len(milp_calls) == 1


@pytest.mark.parametrize("case", CASES)
def test_solve_benefit_matches_the_milp_alone(case, layout_models,
                                              binding_x):
    """An integral LP vertex is another optimum of the integer program
    at most, never another benefit."""
    model = layout_models[case]
    assert model.solve().benefit == _benefit(model, binding_x(case, "milp"))


#: Instances drawn by :func:`opt_instance_strategy` per test seed.
N_STRATEGY_CASES = 25


@pytest.mark.parametrize("seed", range(4))
def test_solve_benefit_matches_the_milp_alone_on_random_instances(seed):
    rng = random.Random(0x1F1257 + seed)
    for case in range(N_STRATEGY_CASES):
        trace, config, kind = opt_instance_strategy(rng)
        model = MODELS[kind](trace, config)
        solved = model.solve().benefit
        if trace.packets:
            assert solved == _benefit(model, highs.milp(*_arrays(model))), (
                f"seed={seed} case={case} trace={trace.name} {kind}")


#: The names ``milp`` takes from the binding.
MILP_NAMES = ("HighsLp", "MatrixFormat", "HighsVarType", "_Highs",
              "HighsOptions", "HighsStatus", "HighsModelStatus")


@needs_binding
@pytest.mark.parametrize("missing", MILP_NAMES)
def test_binding_with_another_api_falls_back(missing, monkeypatch):
    """A scipy whose binding lacks a name ``milp`` uses solves through
    ``scipy.optimize.milp`` instead of raising ``AttributeError``."""
    args = _arrays(MODELS["cioq"](*_instance("grid-s1-c1-weighted-0")))
    expected = highs.scipy_milp(*args)
    core = highs.load_binding()
    stub = types.ModuleType(highs.BINDING)
    for name in MILP_NAMES:
        if name != missing:
            setattr(stub, name, getattr(core, name))
    monkeypatch.setitem(sys.modules, highs.BINDING, stub)
    calls = _counted(monkeypatch, highs, "scipy_milp")
    assert highs.milp(*args).tobytes() == expected.tobytes()
    assert len(calls) == 1


@needs_binding
def test_infeasible_model_raises_through_the_binding():
    with pytest.raises(RuntimeError, match="Infeasible"):
        highs.milp(*INFEASIBLE)


def test_infeasible_model_raises_through_the_fallback(monkeypatch):
    lp_calls, milp_calls = _no_binding(monkeypatch)
    with pytest.raises(RuntimeError, match="status=2"):
        highs.milp(*INFEASIBLE)
    assert (len(lp_calls), len(milp_calls)) == (0, 1)


#: Statuses with no optimality proof; under the first three HiGHS may
#: still hold a feasible incumbent, which ``milp`` would return.
NOT_OPTIMAL = ("kTimeLimit", "kIterationLimit", "kSolutionLimit",
               "kInterrupt", "kInfeasible", "kUnknown")


@needs_binding
@pytest.mark.parametrize("status", NOT_OPTIMAL)
@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("call", ["lp", "milp"])
def test_solve_raises_unless_the_binding_proves_optimality(
        call, kind, status, monkeypatch):
    """HiGHS reports ``status`` on the ``call`` runs only: on the LP
    call, or on the MILP call that a fractional vertex leads to."""
    core = highs.load_binding()
    reported = getattr(core.HighsModelStatus, status)
    integer = core.HighsVarType.kInteger

    class Highs(core._Highs):
        def passModel(self, model):
            self.is_milp = integer in model.integrality_
            return super().passModel(model)

        def getModelStatus(self):
            if self.is_milp == (call == "milp"):
                return reported
            return super().getModelStatus()

    fake = types.SimpleNamespace(**{**vars(core), "_Highs": Highs})
    monkeypatch.setattr(highs, "load_binding", lambda: fake)
    model = MODELS[kind](*_instance(FRACTIONAL[kind]))
    lp_calls, milp_calls = _solver_calls(monkeypatch, model)
    with pytest.raises(RuntimeError, match="HiGHS"):
        model.solve()
    assert (len(lp_calls), len(milp_calls)) == (1, int(call == "milp"))


@pytest.mark.parametrize("status", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("call", ["lp", "milp"])
def test_solve_raises_unless_scipy_milp_reports_success(
        call, kind, status, monkeypatch):
    """As above, through ``scipy.optimize.milp``: the LP call passes it
    ``integrality=0``."""
    import scipy.optimize

    solve = scipy.optimize.milp

    def not_optimal(c, **kwargs):
        if np.any(kwargs["integrality"]) != (call == "milp"):
            return solve(c, **kwargs)
        # Status 1 (a time or iteration limit) may come with an x.
        return scipy.optimize.OptimizeResult(
            status=status, message="not optimal", x=np.zeros(c.size))

    lp_calls, milp_calls = _no_binding(monkeypatch)
    monkeypatch.setattr(scipy.optimize, "milp", not_optimal)
    with pytest.raises(RuntimeError, match=f"status={status}"):
        MODELS[kind](*_instance(FRACTIONAL[kind])).solve()
    assert (len(lp_calls), len(milp_calls)) == (1, int(call == "milp"))
