"""OPT solver-mode benchmark: exact vs bounds.

Times the two offline-OPT solvers (see ``docs/offline_opt.md``; the
``auto`` mode picks one of them) and the width of the certified
``bounds`` bracket across three kinds of cells:

* **comparison** — instances where the exact MILP is still feasible:
  both solvers run on the same trace, so speedups and bracket widths
  are measured against the true optimum.  Each comparison cell doubles
  as the *measured floor* for the same-N scale cell: exact cost at the
  same port count only grows with the horizon, so
  ``speedup_floor_vs_exact`` on a scale row is a certified
  underestimate of the true speedup.
* **scenario** — builtin non-adversarial scenarios at their registered
  size: bracket width as a fraction of exact OPT.
* **scale** — port counts and horizons where exact is not run (N in
  {8, 16, 64}, horizons up to 10^6 arrival slots; the size proxy
  exceeds ``AUTO_EXACT_BUDGET``, so ``auto`` picks bounds): bounds
  wall-clock and certified relative width, with
  ``exact_status = "infeasible"``.

Runs two ways:

* ``python benchmarks/bench_opt.py [--quick]`` — the sweep.  Writes
  ``BENCH_opt.json`` at the repo root: sorted keys, no timestamps,
  trailing newline.  ``--quick`` (CI smoke) runs a reduced grid with
  the same row schema and skips the quarter-hour exact legs.
* ``pytest benchmarks/bench_opt.py --benchmark-only`` — pytest-benchmark
  statistics on the single-run mode legs.

The committed ``BENCH_opt.json`` (full grid) is validated — schema,
>= 10x speedups, infeasibility markers — by ``tests/test_package.py``;
refresh it with ``PYTHONPATH=src python benchmarks/bench_opt.py``.
"""

import time

from repro.offline import bounds_opt, cioq_opt, crossbar_opt
from repro.scenarios import get_scenario
from repro.switch.config import SwitchConfig
from repro.traffic import BernoulliTraffic
from repro.traffic.values import uniform_values

# ---------------------------------------------------------------------------
# pytest-benchmark legs (small, fixed instances)
# ---------------------------------------------------------------------------

_CONFIG4 = SwitchConfig.square(4, speedup=2, b_in=4, b_out=4, b_cross=1)
_TRACE4 = BernoulliTraffic(
    4, 4, load=1.2, value_model=uniform_values(1, 9)
).generate(60, seed=0)


def test_opt_exact_4x4(benchmark):
    result = benchmark.pedantic(
        cioq_opt, args=(_TRACE4, _CONFIG4), rounds=3, iterations=1
    )
    assert result.benefit > 0


def test_opt_bounds_4x4(benchmark):
    result = benchmark.pedantic(
        bounds_opt, args=(_TRACE4, _CONFIG4), rounds=3, iterations=1
    )
    assert result.opt_lower <= result.opt_upper


# ---------------------------------------------------------------------------
# Standalone sweep
# ---------------------------------------------------------------------------

#: Synthetic workload shared by comparison and scale cells.
_VALUES = uniform_values(1, 9)


def _synth_trace(n, slots, load, seed=0):
    return BernoulliTraffic(n, n, load=load, value_model=_VALUES).generate(
        slots, seed=seed
    )


def _config(n):
    return SwitchConfig.square(n, speedup=2, b_in=4, b_out=4, b_cross=1)


#: (cell, n_ports, arrival_slots, load, run_exact)
COMPARISON_CELLS = [
    ("n4-h400", 4, 400, 1.2, True),
    ("n16-h25", 16, 25, 0.8, True),
]

#: Builtin non-adversarial scenarios, at their registered size.
SCENARIO_CELLS = [
    "smoke-bernoulli",
    "bernoulli-light",
    "qos-two-class",
    "crossbar-unit-burst",
]

#: (cell, n_ports, arrival_slots, load, floor_ref) — cells where exact
#: is not run; ``floor_ref`` names a comparison cell whose measured
#: exact time is a floor for this cell's (same-N, longer horizon)
#: exact cost.
SCALE_CELLS = [
    ("n4-h2000", 4, 2000, 1.2, "n4-h400"),
    ("n8-h1e6", 8, 1_000_000, 0.1, None),
    ("n16-h1e5", 16, 100_000, 0.6, "n16-h25"),
    ("n64-h1e5", 64, 100_000, 0.2, None),
]

QUICK_COMPARISON = [("n4-h120", 4, 120, 1.2, True)]
QUICK_SCENARIOS = ["smoke-bernoulli", "crossbar-unit-burst"]
QUICK_SCALE = [("n16-h2000", 16, 2000, 0.6, None)]


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _row(cell, kind, model, n, slots, workload, *, exact_res=None,
         exact_s=None, bounds_res=None, bounds_s=None, floor_s=None):
    """One uniform snapshot row; legs that did not run stay None."""
    exact_b = exact_res.benefit if exact_res is not None else None
    return {
        "cell": cell,
        "kind": kind,
        "model": model,
        "n_ports": n,
        "arrival_slots": slots,
        "workload": workload,
        "exact_status": "measured" if exact_s is not None else "infeasible",
        "exact_seconds": round(exact_s, 3) if exact_s is not None else None,
        "bounds_seconds": round(bounds_s, 4) if bounds_s is not None else None,
        "bounds_width_vs_exact": (
            round((bounds_res.opt_upper - bounds_res.opt_lower) / exact_b, 4)
            if bounds_res is not None and exact_b else None),
        "bounds_rel_width": (
            round(bounds_res.rel_bracket_width, 4)
            if bounds_res is not None else None),
        "speedup_bounds": (
            round(exact_s / bounds_s, 2)
            if exact_s is not None and bounds_s else None),
        # Scale rows: measured same-N exact floor / bounds time.  The
        # true exact time at this horizon is strictly larger, so this
        # underestimates the real speedup.
        "speedup_floor_vs_exact": (
            round(floor_s / bounds_s, 2)
            if floor_s is not None and bounds_s else None),
    }


def _comparison_row(cell, n, slots, load, run_exact):
    config = _config(n)
    trace = _synth_trace(n, slots, load)
    workload = f"bernoulli load={load:g} uniform(1,9)"
    exact_res = exact_s = None
    if run_exact:
        exact_res, exact_s = _timed(lambda: cioq_opt(trace, config))
    bounds_res, bounds_s = _timed(lambda: bounds_opt(trace, config))
    return _row(cell, "comparison", "cioq", n, slots, workload,
                exact_res=exact_res, exact_s=exact_s,
                bounds_res=bounds_res, bounds_s=bounds_s)


def _scenario_row(name):
    spec = get_scenario(name)
    config = spec.build_config()
    trace = spec.build_traffic().generate(spec.slots, seed=spec.seeds[0])
    exact = cioq_opt if spec.model == "cioq" else crossbar_opt
    exact_res, exact_s = _timed(lambda: exact(trace, config))
    bounds_res, bounds_s = _timed(
        lambda: bounds_opt(trace, config, model=spec.model))
    return _row(name, "scenario", spec.model, config.n_in, spec.slots,
                f"scenario:{name}",
                exact_res=exact_res, exact_s=exact_s,
                bounds_res=bounds_res, bounds_s=bounds_s)


def _scale_row(cell, n, slots, load, floor_s):
    config = _config(n)
    trace = _synth_trace(n, slots, load)
    workload = f"bernoulli load={load:g} uniform(1,9)"
    bounds_res, bounds_s = _timed(lambda: bounds_opt(trace, config))
    return _row(cell, "scale", "cioq", n, slots, workload,
                bounds_res=bounds_res, bounds_s=bounds_s, floor_s=floor_s)


def write_snapshot(rows, path):
    """Canonical snapshot: sorted keys, no timestamps or host data,
    trailing newline."""
    import json

    snapshot = {
        "schema": 1,
        "workload": {
            "buffers": {"b_in": 4, "b_out": 4, "b_cross": 1},
            "speedup": 2,
            "metric": "single-run wall-clock seconds per solver; "
                      "widths are certified bracket widths",
            "exact_floor": "scale-row speedup floors divide the measured "
                           "exact time of the same-N comparison cell "
                           "(shorter horizon), underestimating the true "
                           "speedup",
        },
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def main(argv=None):
    """Standalone sweep: ``python benchmarks/bench_opt.py``."""
    import argparse
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced grid, no long exact legs (CI smoke)")
    parser.add_argument(
        "--output", default=str(root / "BENCH_opt.json"),
        help="snapshot path (default: repo-root BENCH_opt.json)")
    args = parser.parse_args(argv)

    comparison = QUICK_COMPARISON if args.quick else COMPARISON_CELLS
    scenarios = QUICK_SCENARIOS if args.quick else SCENARIO_CELLS
    scale = QUICK_SCALE if args.quick else SCALE_CELLS

    rows = []
    exact_times = {}
    print("comparison cells (exact measured):")
    for cell, n, slots, load, run_exact in comparison:
        row = _comparison_row(cell, n, slots, load, run_exact)
        exact_times[cell] = row["exact_seconds"]
        rows.append(row)
        print(f"  {cell:12s} exact {row['exact_seconds']}s  "
              f"bounds {row['bounds_seconds']}s  "
              f"speedup_bounds {row['speedup_bounds']}x")
    print("scenario width cells:")
    for name in scenarios:
        row = _scenario_row(name)
        rows.append(row)
        print(f"  {name:22s} bounds width/exact "
              f"{row['bounds_width_vs_exact']}")
    print("scale cells (exact not run):")
    for cell, n, slots, load, floor_ref in scale:
        floor_s = exact_times.get(floor_ref)
        row = _scale_row(cell, n, slots, load, floor_s)
        rows.append(row)
        print(f"  {cell:12s} bounds {row['bounds_seconds']}s  rel width "
              f"{row['bounds_rel_width']}  speedup floor "
              f"{row['speedup_floor_vs_exact']}x")

    write_snapshot(rows, args.output)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
