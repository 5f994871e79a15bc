"""T1 — Theorem 1: GM's empirical competitive ratio (bound: 3).

Runs GM against the exact offline optimum across traffic families,
switch sizes, buffer sizes and speedups.  Every cell is *replicated*:
the listed seed starts a 3-seed ladder, and the table reports the mean
per-seed ratio with its 95% CI half-width (the mean of per-seed ratios,
never a ratio of summed benefits — see docs/statistics.md) plus the
worst seed.  Each cell is a scenario spec; the cells run through one
executor call.  Every measured ratio must stay at or below 3; the
observed worst case (and which family achieves it) is the experiment's
headline row.
"""

from repro.analysis.ratio import ratio_of
from repro.analysis.report import format_mean_ci, format_table
from repro.core.params import GM_RATIO
from repro.scenarios import ScenarioSpec, run_scenarios
from repro.stats import Welford, half_width

from conftest import benefit_pairs, run_once

#: Replicate seeds per cell (each cell's seed starts a ladder of this
#: length).
REPLICATES = 3

CELLS = [
    # (label, traffic, traffic params, n, b_in, b_out, speedup, slots, seed)
    ("bernoulli 0.9", "bernoulli", {"load": 0.9}, 3, 2, 2, 1, 20, 0),
    ("bernoulli 1.3", "bernoulli", {"load": 1.3}, 3, 2, 2, 1, 20, 1),
    ("bernoulli 1.3 s=2", "bernoulli", {"load": 1.3}, 3, 2, 2, 2, 20, 1),
    ("bernoulli 1.3 B=1", "bernoulli", {"load": 1.3}, 3, 1, 1, 1, 20, 1),
    ("hotspot 70%", "hotspot", {"load": 1.2, "hot_fraction": 0.7}, 3, 2, 2, 1, 20, 2),
    ("hotspot 70% N=4", "hotspot", {"load": 1.2, "hot_fraction": 0.7}, 4, 2, 2, 1, 16, 2),
    ("bursty incast", "bursty", {"burst_load": 2.5, "dst_weights": [0.6, 0.2, 0.2]},
     3, 2, 2, 1, 20, 3),
    ("diagonal", "diagonal", {"load": 1.2}, 4, 2, 2, 1, 16, 4),
]


def cell_specs():
    """One GM-vs-OPT spec per cell, over the cell's seed ladder."""
    return [
        ScenarioSpec(
            name=f"t1-cell-{i}",
            switch={"n_in": n, "n_out": n, "b_in": b_in, "b_out": b_out,
                    "speedup": s},
            traffic=traffic,
            traffic_params=params,
            policies=({"name": "gm"},),
            slots=slots,
            seeds=range(seed, seed + REPLICATES),
        )
        for i, (_, traffic, params, n, b_in, b_out, s, slots, seed)
        in enumerate(CELLS)
    ]


def compute_rows(executor=None):
    rows = []
    ratios = []
    for (label, _, _, n, b_in, _, s, _, _), run in zip(
            CELLS, run_scenarios(cell_specs(), executor)):
        cell = [ratio_of(opt, onl) for onl, opt in benefit_pairs(run, "gm")]
        ratios.extend(cell)
        acc = Welford.from_values(cell)
        rows.append(
            {
                "traffic": label,
                "N": n,
                "B_in": b_in,
                "speedup": s,
                "ratio": format_mean_ci(acc.mean,
                                        half_width(acc.std, acc.n, 0.95)),
                "worst": round(max(cell), 4),
                "<=3": all(r <= GM_RATIO + 1e-9 for r in cell),
            }
        )
    return rows, ratios


def test_t1_gm_ratio_table(benchmark, emit, sweep_executor):
    rows, ratios = run_once(benchmark, compute_rows, sweep_executor)
    emit("\n" + format_table(
        rows,
        title=f"T1 - GM empirical competitive ratio vs exact OPT "
              f"(Theorem 1 bound: 3; {REPLICATES} seeds per cell, "
              f"mean ± 95% CI half-width)",
    ))
    emit(f"worst observed ratio: {max(ratios):.4f} "
         f"(mean {sum(ratios) / len(ratios):.4f}, n={len(ratios)})")
    assert all(r["<=3"] for r in rows)
    assert len(ratios) == len(CELLS) * REPLICATES
    assert max(ratios) <= GM_RATIO + 1e-9
