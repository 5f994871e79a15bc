"""Engine microbenchmarks: simulation throughput of the substrate.

Not a paper experiment — substrate performance numbers for users sizing
their own sweeps: slots/second of the full phase-faithful engine and
the vectorized ``fast`` backend's speedup over it across a port-count
sweep and a crossover block of small switches and seed-ladder widths
(where ``backend="auto"``'s ``lanes x ports`` rule is calibrated), plus
the exact-OPT solve time on a typical ratio-experiment instance.

Runs two ways:

* ``pytest benchmarks/bench_engine.py --benchmark-only`` — full
  pytest-benchmark statistics on the single-run reference workloads;
* ``python benchmarks/bench_engine.py [--quick]`` — the backend
  comparison sweep.  Each grid row batches a seed ladder of traces and
  times the reference kernel (serial loop) against the ``fast`` backend
  (one lockstep batch), then writes ``BENCH_engine.json`` at the repo
  root: sorted keys, no timestamps, trailing newline, so regeneration
  on the same machine produces minimal diffs.  ``--quick`` runs one
  timed rep per cell instead of three (CI smoke mode) — same grid,
  same schema.

The committed ``BENCH_engine.json`` is validated (schema, speedup floor,
and ``auto``'s crossover against the crossover rows) by
``tests/test_package.py``; refresh it with
``PYTHONPATH=src python benchmarks/bench_engine.py``.
"""

import pytest

from repro.core.cgu import CGUPolicy
from repro.core.cpg import CPGPolicy
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.offline.opt import cioq_opt
from repro.simulation.engine import (
    run_cioq,
    run_cioq_batch,
    run_crossbar,
    run_crossbar_batch,
)
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.values import uniform_values

CONFIG8 = SwitchConfig.square(8, speedup=2, b_in=4, b_out=4, b_cross=1)
TRACE8 = BernoulliTraffic(8, 8, load=1.2).generate(100, seed=0)
WTRACE8 = BernoulliTraffic(
    8, 8, load=1.2, value_model=uniform_values(1, 100)
).generate(100, seed=0)

OPT_CONFIG = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2)
OPT_TRACE = BernoulliTraffic(3, 3, load=1.2).generate(20, seed=1)


def test_engine_gm_8x8(benchmark):
    result = benchmark(run_cioq, GMPolicy(), CONFIG8, TRACE8)
    result.check_conservation()
    assert result.n_sent > 0


def test_engine_pg_8x8(benchmark):
    result = benchmark(run_cioq, PGPolicy(), CONFIG8, WTRACE8)
    result.check_conservation()


def test_engine_cgu_8x8(benchmark):
    result = benchmark(run_crossbar, CGUPolicy(), CONFIG8, TRACE8)
    result.check_conservation()


def test_exact_opt_solve(benchmark):
    result = benchmark.pedantic(
        cioq_opt, args=(OPT_TRACE, OPT_CONFIG), rounds=3, iterations=1
    )
    assert result.benefit > 0


# ---------------------------------------------------------------------------
# Standalone backend-comparison sweep
# ---------------------------------------------------------------------------

#: (n_ports, seed-ladder width, arrival slots) — the ladder shrinks and
#: the trace shortens at N=256 to keep the serial reference leg sane.
GRID = [
    (8, 16, 100),
    (32, 16, 100),
    (64, 16, 100),
    (128, 16, 100),
    (256, 8, 60),
]

POLICIES = [
    ("gm", "cioq", GMPolicy),
    ("pg", "cioq", PGPolicy),
    ("cgu", "crossbar", CGUPolicy),
]

#: The crossover block: every paper policy on small switches over seed
#: ladders of 1 to 64 lanes, so lanes x ports runs from 2 to 2,048 on
#: both sides of ``AUTO_CROSSOVER``.
CROSSOVER_PORTS = (2, 4, 8, 16, 32)
CROSSOVER_LANES = (1, 2, 4, 8, 16, 64)
CROSSOVER_SLOTS = 40
CROSSOVER_POLICIES = POLICIES + [("cpg", "crossbar", CPGPolicy)]

#: A timed sample runs its leg this long at least (repeating it), so
#: millisecond cells are not timer noise.
MIN_SAMPLE_S = 0.02


def _bench_row(n, batch, slots, label, model, factory, reps):
    import time

    config = SwitchConfig.square(n, speedup=2, b_in=4, b_out=4, b_cross=1)
    tm = BernoulliTraffic(n, n, load=1.2, value_model=uniform_values(1, 9))
    traces = [tm.generate(slots, seed=s) for s in range(batch)]
    if model == "cioq":
        serial, batched = run_cioq, run_cioq_batch
    else:
        serial, batched = run_crossbar, run_crossbar_batch

    def ref_leg():
        return [serial(factory(), config, tr) for tr in traces]

    def fast_leg():
        return batched(factory, config, traces, backend="fast")

    ref_res = ref_leg()       # warm-up + correctness anchor
    fast_res = fast_leg()
    for a, b in zip(ref_res, fast_res):
        if a.benefit != b.benefit:  # cheap differential guard
            raise AssertionError(
                f"backend divergence in bench ({label}, n={n}): "
                f"{a.benefit} != {b.benefit}"
            )
    t_ref = min(_timed(ref_leg, time.perf_counter) for _ in range(reps))
    t_fast = min(_timed(fast_leg, time.perf_counter) for _ in range(reps))
    if min(t_ref, t_fast) < MIN_SAMPLE_S:
        calls = int(MIN_SAMPLE_S / max(min(t_ref, t_fast), 1e-6)) + 1
        t_ref = min(_timed(ref_leg, time.perf_counter, calls)
                    for _ in range(reps))
        t_fast = min(_timed(fast_leg, time.perf_counter, calls)
                     for _ in range(reps))
    lane_slots = batch * slots
    return {
        "policy": label,
        "model": model,
        "n_ports": n,
        "batch": batch,
        "arrival_slots": slots,
        "reference_slots_per_sec": round(lane_slots / t_ref, 1),
        "fast_slots_per_sec": round(lane_slots / t_fast, 1),
        "speedup": round(t_ref / t_fast, 2),
    }


def write_snapshot(rows, path):
    """Write the benchmark snapshot deterministically: sorted keys, no
    timestamps or host identifiers, trailing newline."""
    import json

    snapshot = {
        "schema": 1,
        "workload": {
            "traffic": "bernoulli load=1.2 uniform(1,9)",
            "speedup": 2,
            "buffers": {"b_in": 4, "b_out": 4, "b_cross": 1},
            "metric": "lane arrival-slots per second, best of reps",
        },
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def main(argv=None):
    """Standalone sweep: ``python benchmarks/bench_engine.py``."""
    import argparse
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="1 timed rep per cell instead of 3 (CI smoke)")
    parser.add_argument(
        "--output", default=str(root / "BENCH_engine.json"),
        help="snapshot path (default: repo-root BENCH_engine.json)")
    args = parser.parse_args(argv)
    reps = 1 if args.quick else 3

    cells = [(n, batch, slots, POLICIES) for n, batch, slots in GRID]
    cells += [(n, batch, CROSSOVER_SLOTS, CROSSOVER_POLICIES)
              for n in CROSSOVER_PORTS for batch in CROSSOVER_LANES]
    rows = []
    print(f"backend sweep ({reps} timed rep(s) per cell):")
    for n, batch, slots, policies in cells:
        for label, model, factory in policies:
            row = _bench_row(n, batch, slots, label, model, factory, reps)
            rows.append(row)
            print(f"  {label:>3} {model:<8} N={n:<3} S={batch:<2} "
                  f"ref {row['reference_slots_per_sec']:>10.1f} sl/s  "
                  f"fast {row['fast_slots_per_sec']:>10.1f} sl/s  "
                  f"speedup {row['speedup']:.2f}x")
    write_snapshot(rows, args.output)
    print(f"wrote {args.output}")
    return 0


def _timed(fn, clock, calls=1):
    """Seconds per call of ``fn`` over ``calls`` back-to-back calls."""
    t0 = clock()
    for _ in range(calls):
        fn()
    return (clock() - t0) / calls


if __name__ == "__main__":
    raise SystemExit(main())
