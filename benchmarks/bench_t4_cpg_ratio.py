"""T4 — Theorem 4: CPG's empirical ratio and the (beta, alpha) grid.

Two parts, each a list of scenario specs run through one executor call:

1. CPG at the paper's optimal thresholds (beta* ~ 1.839, alpha* ~ 2.839)
   against the exact crossbar OPT (bound ~ 14.83).
2. A (beta, alpha) grid around the optimum: measured ratio per cell next
   to the analytical bound surface, confirming the paper's choice is a
   sensible operating point and that beta != alpha matters (full
   ablation in T9).
"""

from repro.analysis.ratio import ratio_of
from repro.analysis.report import format_table
from repro.core.params import cpg_optimal_params, cpg_optimal_ratio, cpg_ratio
from repro.scenarios import ScenarioSpec, run_scenarios

from conftest import benefit_pairs, run_once

#: 3x3 buffered crossbar of the T4a cells.
SWITCH = {"n_in": 3, "n_out": 3, "b_in": 2, "b_out": 2, "b_cross": 1}

CELLS = [
    # (label, traffic, traffic params, values, value params, seed)
    ("uniform [1,100]", "bernoulli", {"load": 1.4},
     "uniform", {"lo": 1, "hi": 100}, 0),
    ("two-value a=10", "bernoulli", {"load": 1.5},
     "two-value", {"alpha": 10, "p_high": 0.25}, 1),
    ("pareto 1.3", "bernoulli", {"load": 1.4}, "pareto", {"shape": 1.3}, 2),
    ("hotspot two-value", "hotspot", {"load": 1.5, "hot_fraction": 0.7},
     "two-value", {"alpha": 50, "p_high": 0.15}, 3),
]


def compute_ratio_rows(executor=None):
    """One CPG-vs-OPT spec per value family, 16 slots each."""
    specs = [
        ScenarioSpec(
            name=f"t4a-cell-{i}",
            model="crossbar",
            switch=SWITCH,
            traffic=traffic,
            traffic_params=params,
            values=values,
            value_params=value_params,
            policies=({"name": "cpg"},),
            slots=16,
            seeds=(seed,),
        )
        for i, (_, traffic, params, values, value_params, seed)
        in enumerate(CELLS)
    ]
    rows = []
    for (label, *_), run in zip(CELLS, run_scenarios(specs, executor)):
        ((onl, opt),) = benefit_pairs(run, "cpg")
        ratio = ratio_of(opt, onl)
        rows.append(
            {
                "values": label,
                "CPG": round(onl, 1),
                "OPT": round(opt, 1),
                "ratio": round(ratio, 4),
                "<=14.83": ratio <= cpg_optimal_ratio() + 1e-9,
            }
        )
    return rows


def compute_grid(executor=None):
    """One CPG policy entry per (beta, alpha) cell on one instance."""
    beta_star, alpha_star, _ = cpg_optimal_params()
    cells = [(beta, alpha) for beta in (1.3, beta_star, 3.0)
             for alpha in (1.5, alpha_star, 5.0)]
    spec = ScenarioSpec(
        name="t4b-threshold-grid",
        model="crossbar",
        switch={"n_in": 3, "n_out": 3, "b_in": 2, "b_out": 2, "b_cross": 1},
        traffic_params={"load": 1.6},
        values="two-value",
        value_params={"alpha": 20, "p_high": 0.3},
        policies=tuple({"name": "cpg", "beta": beta, "alpha": alpha}
                       for beta, alpha in cells),
        slots=18,
        seeds=(9,),
    )
    (run,) = run_scenarios([spec], executor)
    *cpg, opt = run.metrics
    rows = []
    for (beta, alpha), m in zip(cells, cpg):
        row = {
            "beta": round(beta, 4),
            "alpha": round(alpha, 4),
            "cpg_benefit": round(m["benefit"], 3),
            "opt_benefit": round(opt["benefit"], 3),
            "ratio": round(ratio_of(opt["benefit"], m["benefit"]), 4),
            "preempted": m["n_preempted"],
        }
        row["analysis bound"] = round(cpg_ratio(row["beta"], row["alpha"]), 3)
        rows.append(row)
    return rows


def test_t4_cpg_ratio_table(benchmark, emit, sweep_executor):
    rows = run_once(benchmark, compute_ratio_rows, sweep_executor)
    emit("\n" + format_table(
        rows,
        title="T4a - CPG (beta*, alpha*) empirical ratio vs exact OPT "
              "(Theorem 4 bound: 14.83; previous work: 16.24)",
    ))
    emit(f"worst observed ratio: {max(r['ratio'] for r in rows):.4f}")
    assert all(r["<=14.83"] for r in rows)


def test_t4_cpg_threshold_grid(benchmark, emit, sweep_executor):
    rows = run_once(benchmark, compute_grid, sweep_executor)
    emit("\n" + format_table(
        rows,
        title="T4b - CPG (beta, alpha) grid: measured ratio vs analytical "
              "bound surface",
    ))
    for r in rows:
        assert r["ratio"] <= r["analysis bound"] + 1e-9
