"""T10 — crosspoint buffer sizing: benefit vs B(C) for CGU and CPG.

The buffered crossbar adds N^2 crosspoint queues; their size is fabric
SRAM, the scarcest memory in a switch.  The paper's guarantees hold for
*any* capacities, including B(C) = 1.  This experiment sweeps B(C) in
{1, 2, 4} under bursty overload and reports benefit and ratio against
the exact optimum *at the same B(C)* — showing the guarantee costs no
crosspoint memory and bigger crosspoint buffers buy little.
"""

import math

from repro.analysis.ratio import ratio_of
from repro.analysis.report import format_mean_ci, format_table
from repro.scenarios import get_scenario, run_scenarios
from repro.stats import Welford, half_width

from conftest import run_once

#: Experiment parameters come from the registered crossbar scenarios
#: (CGU on unit values, CPG on Pareto values); this driver adds the
#: crosspoint-capacity sweep dimension using each scenario's first
#: policy, replicated over REPLICATES seeds per B(C) cell.
B_CROSS_VALUES = [1, 2, 4]
REPLICATES = 3


def _sweep_scenario(name, executor):
    """One spec per B(C): the scenario's first policy with its
    ``b_cross`` field overridden, over REPLICATES seeds."""
    base = get_scenario(name)
    spec = base.with_overrides(seeds=range(REPLICATES),
                               policies=base.policies[:1])
    label = spec.policy_labels()[0]
    specs = [spec.with_overrides(switch={**spec.switch, "b_cross": bc})
             for bc in B_CROSS_VALUES]
    rows = []
    for bc, run in zip(B_CROSS_VALUES, run_scenarios(specs, executor)):
        benefit = {(m["seed"], m["policy"]): m["benefit"]
                   for m in run.metrics}
        for seed in spec.seeds:
            onl, opt = benefit[seed, label], benefit[seed, "OPT"]
            rows.append({
                "b_cross": bc,
                "seed": seed,
                "benefit": round(onl, 3),
                "opt": round(opt, 3),
                "ratio": round(ratio_of(opt, onl), 4),
            })
    return rows


def compute_tables(executor=None):
    unit_rows = _sweep_scenario("crossbar-unit-burst", executor)
    weighted_rows = _sweep_scenario("crossbar-weighted-pareto", executor)
    return unit_rows, weighted_rows


def replicated_rows(rows):
    """Per-B(C) mean benefit and mean per-seed ratio ± 95% CI
    half-width (per-seed ratios, never sum-of-benefit ratios; a seed
    with an unbounded ratio is excluded from the mean like
    ``per_seed_ratios`` does)."""
    out = []
    for bc in B_CROSS_VALUES:
        cell = [r for r in rows if r["b_cross"] == bc]
        agg = {"b_cross": bc, "seeds": len(cell)}
        for name in ("benefit", "ratio"):
            acc = Welford.from_values(
                v for r in cell
                if math.isfinite(v := float(r[name]))
            )
            agg[name] = format_mean_ci(acc.mean,
                                       half_width(acc.std, acc.n, 0.95))
        out.append(agg)
    return out


def test_t10_crossbar_buffer_sweep(benchmark, emit, sweep_executor):
    unit_rows, weighted_rows = run_once(benchmark, compute_tables,
                                        sweep_executor)
    emit("\n" + format_table(
        unit_rows,
        title="T10a - CGU benefit/ratio vs crosspoint capacity B(C) "
              "(bursty unit traffic)",
    ))
    emit(format_table(
        replicated_rows(unit_rows),
        title=f"T10a (replicated) - CGU mean ± 95% CI half-width over "
              f"{REPLICATES} seeds",
    ))
    emit(format_table(
        weighted_rows,
        title="T10b - CPG benefit/ratio vs crosspoint capacity B(C) "
              "(bursty Pareto traffic)",
    ))
    emit(format_table(
        replicated_rows(weighted_rows),
        title=f"T10b (replicated) - CPG mean ± 95% CI half-width over "
              f"{REPLICATES} seeds",
    ))
    for rows, bound in ((unit_rows, 3.0), (weighted_rows, 14.83)):
        for r in rows:
            assert r["ratio"] <= bound + 1e-9
    # The B(C)=1 guarantee is already competitive: worst ratio at B(C)=1
    # stays far below the bound.
    worst_b1 = max(r["ratio"] for r in unit_rows if r["b_cross"] == 1)
    assert worst_b1 < 3.0
