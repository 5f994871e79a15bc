"""T6 — throughput vs speedup: GM vs baselines vs OPT.

The paper's guarantees hold "for any speedup"; this experiment shows the
empirical picture behind that phrase: as the fabric speedup grows from 1
to 4 under overloaded hotspot traffic, how much of the exact optimum
each scheduler captures, and where the greedy maximal matching (GM)
lands relative to the maximum-matching schedule (prior work), the
iSLIP-style round-robin heuristic (hardware practice), and a randomized
greedy.
"""

from repro.analysis.report import format_mean_ci, format_table
from repro.scenarios import get_scenario, run_scenarios
from repro.stats import Welford, half_width

from conftest import run_once

#: All experiment parameters (switch, traffic, policies, slots, seeds)
#: come from the registered scenario; this driver only adds the
#: speedup sweep dimension and replicates over REPLICATES seeds.
SCENARIO = "speedup-grid"
SPEEDUPS = [1, 2, 3, 4]
REPLICATES = 4


def compute_rows(executor=None):
    """One spec per speedup: the scenario with its ``speedup`` field
    overridden, over REPLICATES seeds."""
    spec = get_scenario(SCENARIO)
    specs = [spec.with_overrides(switch={**spec.switch, "speedup": s},
                                 seeds=range(REPLICATES))
             for s in SPEEDUPS]
    columns = spec.policy_labels() + ["OPT"]
    rows = []
    for s, run in zip(SPEEDUPS, run_scenarios(specs, executor)):
        benefit = {(m["seed"], m["policy"]): m["benefit"]
                   for m in run.metrics}
        for r in run.rows:
            row = {"speedup": s, "seed": r["seed"], "arrived": r["arrived"]}
            for name in columns:
                row[name] = round(benefit[r["seed"], name], 3)
            rows.append(row)
    return rows


def replicated_rows(rows, columns):
    """Per-speedup mean ± 95% CI half-width over the seed replicates."""
    out = []
    for s in sorted({r["speedup"] for r in rows}):
        cell = [r for r in rows if r["speedup"] == s]
        agg = {"speedup": s, "seeds": len(cell)}
        for name in columns:
            acc = Welford.from_values(float(r[name]) for r in cell)
            agg[name] = format_mean_ci(acc.mean,
                                       half_width(acc.std, acc.n, 0.95))
        out.append(agg)
    return out


def test_t6_speedup_table(benchmark, emit, sweep_executor):
    labels = get_scenario(SCENARIO).policy_labels()
    rows = run_once(benchmark, compute_rows, sweep_executor)
    emit("\n" + format_table(
        rows,
        title="T6 - packets delivered vs fabric speedup "
              f"(scenario {SCENARIO}; OPT = exact offline optimum)",
    ))
    emit(format_table(
        replicated_rows(rows, labels + ["OPT"]),
        title=f"T6 (replicated) - mean benefit ± 95% CI half-width over "
              f"{REPLICATES} seeds",
    ))
    for r in rows:
        # Nobody beats OPT; GM stays within its factor-3 guarantee.
        for name in labels:
            assert r[name] <= r["OPT"] + 1e-6
        assert r["OPT"] <= 3 * r["gm"] + 1e-6
    # Speedup monotonicity of the optimum (aggregated over seeds).
    by_speedup = {}
    for r in rows:
        by_speedup.setdefault(r["speedup"], 0.0)
        by_speedup[r["speedup"]] += r["OPT"]
    speeds = sorted(by_speedup)
    for a, b in zip(speeds, speeds[1:]):
        assert by_speedup[b] >= by_speedup[a] - 1e-6
