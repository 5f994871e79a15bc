"""T2 — Theorem 2: PG's empirical ratio and the beta sweep.

Two parts, each a list of scenario specs run through one executor call:

1. PG at the analysis-optimal ``beta* = 1 + sqrt(2)`` against the exact
   OPT across weighted traffic families (bound: 3 + 2 sqrt 2 ~ 5.83).
2. The beta sweep on a fixed instance: the measured ratio as a function
   of the preemption threshold, printed next to the analytical bound
   curve ``beta + 2 beta/(beta-1)``, locating the empirical optimum
   relative to beta*.
"""

from repro.analysis.ratio import ratio_of
from repro.analysis.report import format_table
from repro.core.params import pg_optimal_beta, pg_optimal_ratio, pg_ratio
from repro.scenarios import ScenarioSpec, run_scenarios

from conftest import benefit_pairs, run_once

CELLS = [
    # (label, traffic, traffic params, values, value params, seed)
    ("uniform [1,100]", "bernoulli", {"load": 1.3},
     "uniform", {"lo": 1, "hi": 100}, 0),
    ("two-value a=10", "bernoulli", {"load": 1.4},
     "two-value", {"alpha": 10, "p_high": 0.25}, 1),
    ("two-value a=100", "bernoulli", {"load": 1.4},
     "two-value", {"alpha": 100, "p_high": 0.1}, 2),
    ("pareto 1.3", "bernoulli", {"load": 1.3}, "pareto", {"shape": 1.3}, 3),
    ("hotspot pareto", "hotspot", {"load": 1.4, "hot_fraction": 0.7},
     "pareto", {"shape": 1.5}, 4),
]


def compute_ratio_rows(executor=None):
    """One PG-vs-OPT spec per value family on a 3x3 switch."""
    specs = [
        ScenarioSpec(
            name=f"t2a-cell-{i}",
            switch={"n_in": 3, "n_out": 3, "b_in": 2, "b_out": 2},
            traffic=traffic,
            traffic_params=params,
            values=values,
            value_params=value_params,
            policies=({"name": "pg"},),
            slots=20,
            seeds=(seed,),
        )
        for i, (_, traffic, params, values, value_params, seed)
        in enumerate(CELLS)
    ]
    rows = []
    for (label, *_), run in zip(CELLS, run_scenarios(specs, executor)):
        ((onl, opt),) = benefit_pairs(run, "pg")
        ratio = ratio_of(opt, onl)
        rows.append(
            {
                "values": label,
                "PG": round(onl, 1),
                "OPT": round(opt, 1),
                "ratio": round(ratio, 4),
                "<=5.83": ratio <= pg_optimal_ratio() + 1e-9,
            }
        )
    return rows


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


def test_t2_pg_ratio_table(benchmark, emit, sweep_executor):
    rows = run_once(benchmark, compute_ratio_rows, sweep_executor)
    emit("\n" + format_table(
        rows,
        title="T2a - PG (beta*=1+sqrt2) empirical ratio vs exact OPT "
              "(Theorem 2 bound: 5.8284)",
    ))
    emit(f"worst observed ratio: {max(r['ratio'] for r in rows):.4f}")
    assert all(r["<=5.83"] for r in rows)


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
