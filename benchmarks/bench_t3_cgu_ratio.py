"""T3 — Theorem 3: CGU's empirical ratio (paper improves the bound 4 -> 3).

CGU against the exact crossbar OPT across traffic families, buffer
shapes and speedups, one scenario spec per cell, all cells through one
executor call.  The paper's contribution here is analytical (the same
algorithm was previously only known 4-competitive); the experiment
verifies every measured ratio sits within the *new* bound of 3.
"""

from repro.analysis.ratio import ratio_of
from repro.analysis.report import format_table
from repro.core.params import CGU_RATIO, PREVIOUS_CGU_RATIO
from repro.scenarios import ScenarioSpec, run_scenarios

from conftest import benefit_pairs, run_once

CELLS = [
    # (label, traffic, traffic params, n, b_in, b_out, b_cross, speedup, seed)
    ("bernoulli 1.0", "bernoulli", {"load": 1.0}, 3, 2, 2, 1, 1, 0),
    ("bernoulli 1.4", "bernoulli", {"load": 1.4}, 3, 2, 2, 1, 1, 1),
    ("bernoulli 1.4 Bc=2", "bernoulli", {"load": 1.4}, 3, 2, 2, 2, 1, 1),
    ("bernoulli 1.4 s=2", "bernoulli", {"load": 1.4}, 3, 2, 2, 1, 2, 1),
    ("hotspot 80%", "hotspot", {"load": 1.3, "hot_fraction": 0.8}, 3, 2, 2, 1, 1, 2),
    ("bursty incast", "bursty", {"burst_load": 2.5, "dst_weights": [0.6, 0.2, 0.2]},
     3, 2, 2, 1, 1, 3),
    ("tight buffers", "bernoulli", {"load": 1.5}, 3, 1, 1, 1, 1, 4),
]


def compute_rows(executor=None):
    """One CGU-vs-OPT crossbar spec per cell, 18 slots each."""
    specs = [
        ScenarioSpec(
            name=f"t3-cell-{i}",
            model="crossbar",
            switch={"n_in": n, "n_out": n, "b_in": b_in, "b_out": b_out,
                    "b_cross": b_cross, "speedup": s},
            traffic=traffic,
            traffic_params=params,
            policies=({"name": "cgu"},),
            slots=18,
            seeds=(seed,),
        )
        for i, (_, traffic, params, n, b_in, b_out, b_cross, s, seed)
        in enumerate(CELLS)
    ]
    rows = []
    for (label, _, _, _, _, _, b_cross, s, _), run in zip(
            CELLS, run_scenarios(specs, executor)):
        ((onl, opt),) = benefit_pairs(run, "cgu")
        ratio = ratio_of(opt, onl)
        rows.append(
            {
                "traffic": label,
                "B_cross": b_cross,
                "speedup": s,
                "CGU": onl,
                "OPT": opt,
                "ratio": round(ratio, 4),
                "<=3": ratio <= CGU_RATIO + 1e-9,
            }
        )
    return rows


def test_t3_cgu_ratio_table(benchmark, emit, sweep_executor):
    rows = run_once(benchmark, compute_rows, sweep_executor)
    emit("\n" + format_table(
        rows,
        title="T3 - CGU empirical ratio vs exact crossbar OPT "
              "(Theorem 3 bound: 3; previously known: 4)",
    ))
    worst = max(r["ratio"] for r in rows)
    emit(f"worst observed ratio: {worst:.4f} — consistent "
         f"with the improved bound {CGU_RATIO:g} (< previous "
         f"{PREVIOUS_CGU_RATIO:g})")
    assert all(r["<=3"] for r in rows)
    assert worst <= CGU_RATIO + 1e-9
