"""T2 — Theorem 2: PG's empirical ratio and the beta sweep.

Two parts:

1. PG at the analysis-optimal ``beta* = 1 + sqrt(2)`` against the exact
   OPT across weighted traffic families (bound: 3 + 2 sqrt 2 ~ 5.83).
2. The beta sweep on a fixed instance: the measured ratio as a function
   of the preemption threshold, printed next to the analytical bound
   curve ``beta + 2 beta/(beta-1)``, locating the empirical optimum
   relative to beta*.
"""

from repro.analysis.ratio import measure_cioq_ratio, ratio_of, summarize
from repro.analysis.report import format_table
from repro.core.params import pg_optimal_beta, pg_optimal_ratio, pg_ratio
from repro.core.pg import PGPolicy
from repro.scenarios import ScenarioSpec, run_scenarios
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.values import pareto_values, two_value, uniform_values

from conftest import run_once

CELLS = [
    ("uniform [1,100]", lambda n: BernoulliTraffic(
        n, n, load=1.3, value_model=uniform_values(1, 100)), 0),
    ("two-value a=10", lambda n: BernoulliTraffic(
        n, n, load=1.4, value_model=two_value(10, 0.25)), 1),
    ("two-value a=100", lambda n: BernoulliTraffic(
        n, n, load=1.4, value_model=two_value(100, 0.1)), 2),
    ("pareto 1.3", lambda n: BernoulliTraffic(
        n, n, load=1.3, value_model=pareto_values(1.3)), 3),
    ("hotspot pareto", lambda n: HotspotTraffic(
        n, n, load=1.4, hot_fraction=0.7,
        value_model=pareto_values(1.5)), 4),
]


def compute_ratio_rows():
    rows = []
    measurements = []
    config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2)
    for label, make, seed in CELLS:
        trace = make(3).generate(20, seed=seed)
        m = measure_cioq_ratio(
            PGPolicy(), trace, config, bound=pg_optimal_ratio()
        )
        measurements.append(m)
        rows.append(
            {
                "values": label,
                "PG": round(m.onl_benefit, 1),
                "OPT": round(m.opt_benefit, 1),
                "ratio": round(m.ratio, 4),
                "<=5.83": m.within_bound,
            }
        )
    return rows, summarize(measurements)


def compute_beta_sweep(executor=None):
    """One PG policy entry per beta on one instance; OPT, which does not
    depend on beta, is the spec's OPT point."""
    betas = [1.05, 1.2, 1.5, 2.0, pg_optimal_beta(), 3.0, 5.0, 10.0]
    spec = ScenarioSpec(
        name="t2b-beta-sweep",
        switch={"n_in": 3, "n_out": 3, "b_in": 2, "b_out": 2},
        traffic_params={"load": 1.5},
        values="two-value",
        value_params={"alpha": 20, "p_high": 0.3},
        policies=tuple({"name": "pg", "beta": beta} for beta in betas),
        slots=25,
        seeds=(11,),
    )
    (run,) = run_scenarios([spec], executor)
    *pg, opt = run.metrics
    rows = []
    for beta, m in zip(betas, pg):
        row = {
            "beta": round(beta, 4),
            "pg_benefit": round(m["benefit"], 3),
            "opt_benefit": round(opt["benefit"], 3),
            "ratio": round(ratio_of(opt["benefit"], m["benefit"]), 4),
            "preempted": m["n_preempted"],
            "rejected": m["n_rejected"],
        }
        row["analysis bound"] = round(pg_ratio(row["beta"]), 3)
        rows.append(row)
    return rows


def test_t2_pg_ratio_table(benchmark, emit):
    rows, summary = run_once(benchmark, compute_ratio_rows)
    emit("\n" + format_table(
        rows,
        title="T2a - PG (beta*=1+sqrt2) empirical ratio vs exact OPT "
              "(Theorem 2 bound: 5.8284)",
    ))
    emit(f"worst observed ratio: {summary['max_ratio']:.4f}")
    assert summary["all_within_bound"]


def test_t2_pg_beta_sweep(benchmark, emit, sweep_executor):
    rows = run_once(benchmark, compute_beta_sweep, sweep_executor)
    emit("\n" + format_table(
        rows,
        title="T2b - PG beta sweep (two-value traffic): measured ratio vs "
              "analysis bound beta + 2beta/(beta-1)",
    ))
    best = min(rows, key=lambda r: r["ratio"])
    emit(f"empirical best beta ~ {best['beta']}; analysis optimum "
         f"beta* = {pg_optimal_beta():.4f}")
    # Every measured ratio respects the per-beta analytical bound.
    for r in rows:
        assert r["ratio"] <= r["analysis bound"] + 1e-9
