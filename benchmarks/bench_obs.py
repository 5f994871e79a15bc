"""Observability overhead benchmark: metrics off must be free.

Pins the ``repro.obs`` design contract (docs/observability.md):

* **off is free** — running with the :data:`~repro.obs.NULL_METRICS`
  no-op recorder must cost at most :data:`OFF_BUDGET_PCT` percent over
  running with no recorder argument at all (the guard is checked once
  per run, not per slot);
* **on is bounded** — an :class:`~repro.obs.InMemoryRecorder` with
  per-slot sampling (``every_k=1``, the worst case) must stay within
  :data:`ON_BUDGET_PCT` percent;
* **payloads are untouched** — all three modes must produce
  exact-equal results on every observable payload field (the same
  bit-identity contract the backend matrix enforces).

Runs two ways:

* ``python benchmarks/bench_obs.py [--quick] [--check]`` — the
  overhead sweep.  Writes ``BENCH_obs.json`` at the repo root (sorted
  keys, no timestamps, trailing newline).  ``--check`` turns the
  budgets into hard failures (the CI observability-overhead job);
  ``--quick`` uses fewer timed reps (same schema).
* ``pytest benchmarks/bench_obs.py --benchmark-only`` —
  pytest-benchmark statistics on the off/on reference legs.

The committed ``BENCH_obs.json`` is validated (schema, budgets, payload
equality) by ``tests/test_package.py``; refresh it with
``PYTHONPATH=src python benchmarks/bench_obs.py``.
"""

import time

from repro.core.cgu import CGUPolicy
from repro.core.gm import GMPolicy
from repro.obs import NULL_METRICS, InMemoryRecorder
from repro.simulation.backends import numpy_available
from repro.simulation.engine import (
    run_cioq,
    run_cioq_batch,
    run_crossbar,
    run_crossbar_batch,
)
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.values import uniform_values

#: Overhead budgets (percent over the no-recorder baseline), enforced
#: by ``--check`` in CI and by the snapshot test on the committed file.
OFF_BUDGET_PCT = 5.0
ON_BUDGET_PCT = 25.0

CONFIG8 = SwitchConfig.square(8, speedup=2, b_in=4, b_out=4, b_cross=1)

#: Observable payload fields (mirrors the backend-equivalence matrix).
PAYLOAD_FIELDS = [
    "policy_name",
    "n_arrival_slots",
    "horizon",
    "n_arrived",
    "value_arrived",
    "n_accepted",
    "value_accepted",
    "n_rejected",
    "value_rejected",
    "n_preempted_voq",
    "value_preempted_voq",
    "n_preempted_cross",
    "value_preempted_cross",
    "n_preempted_out",
    "value_preempted_out",
    "benefit",
    "n_sent",
    "n_residual",
    "value_residual",
    "sent_per_output",
    "value_per_output",
    "occupancy",
]

#: (label, model, policy factory, backend) benchmark rows; fast rows
#: exercise the vectorized snapshot reads in the batched kernel.
WORKLOADS = [
    ("gm", "cioq", GMPolicy, "reference"),
    ("cgu", "crossbar", CGUPolicy, "reference"),
    ("gm", "cioq", GMPolicy, "fast"),
    ("cgu", "crossbar", CGUPolicy, "fast"),
]


def _traces(n=8, batch=8, slots=250):
    tm = BernoulliTraffic(n, n, load=1.2, value_model=uniform_values(1, 9))
    return [tm.generate(slots, seed=s) for s in range(batch)]


def _make_leg(model, factory, backend, config, traces, metrics_factory):
    """A zero-argument runnable executing the whole trace batch with a
    fresh recorder (``metrics_factory() -> recorder or None``)."""
    if backend == "fast":
        batched = run_cioq_batch if model == "cioq" else run_crossbar_batch

        def leg():
            return batched(factory, config, traces, backend="fast",
                           metrics=metrics_factory())
    else:
        serial = run_cioq if model == "cioq" else run_crossbar

        def leg():
            m = metrics_factory()
            return [serial(factory(), config, tr, metrics=m)
                    for tr in traces]
    return leg


def _payloads_identical(a, b):
    for ra, rb in zip(a, b):
        for name in PAYLOAD_FIELDS:
            if getattr(ra, name) != getattr(rb, name):
                return False, name
    return True, None


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _bench_row(label, model, factory, backend, reps):
    traces = _traces()
    config = CONFIG8
    legs = {
        "base": _make_leg(model, factory, backend, config, traces,
                          lambda: None),
        "off": _make_leg(model, factory, backend, config, traces,
                         lambda: NULL_METRICS),
        "on": _make_leg(model, factory, backend, config, traces,
                        lambda: InMemoryRecorder(every_k=1)),
    }
    # Correctness anchor first (also warms every leg): all three modes
    # must agree exactly on every payload field.
    results = {mode: leg() for mode, leg in legs.items()}
    identical = True
    for mode in ("off", "on"):
        same, field = _payloads_identical(results["base"], results[mode])
        if not same:
            raise AssertionError(
                f"metrics={mode} changed payload field {field!r} "
                f"({label}/{backend})"
            )
        identical = identical and same
    # Each round times all three modes back to back (base, off, on) so
    # they share the same machine conditions, then the overhead is the
    # *median of per-round ratios* — robust to background-load spikes
    # that min-of-reps absorbs into one mode but not another.  The
    # collector is paused so a GC pass can't land in one mode's leg.
    import gc
    import statistics

    rounds = {mode: [] for mode in legs}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            for mode, leg in legs.items():
                rounds[mode].append(_timed(leg))
    finally:
        if gc_was_enabled:
            gc.enable()

    def overhead_pct(mode):
        ratios = [t / b for t, b in zip(rounds[mode], rounds["base"])]
        return round((statistics.median(ratios) - 1) * 100, 2)

    lane_slots = len(traces) * traces[0].n_slots
    return {
        "policy": label,
        "model": model,
        "backend": backend,
        "n_ports": config.n_in,
        "batch": len(traces),
        "arrival_slots": traces[0].n_slots,
        "base_slots_per_sec": round(lane_slots / min(rounds["base"]), 1),
        "off_overhead_pct": overhead_pct("off"),
        "on_overhead_pct": overhead_pct("on"),
        "payloads_identical": identical,
    }


# ---------------------------------------------------------------------------
# pytest-benchmark legs
# ---------------------------------------------------------------------------

def test_obs_off_gm_8x8(benchmark):
    traces = _traces(batch=1)
    result = benchmark(run_cioq, GMPolicy(), CONFIG8, traces[0],
                       metrics=NULL_METRICS)
    result.check_conservation()


def test_obs_on_gm_8x8(benchmark):
    traces = _traces(batch=1)

    def leg():
        return run_cioq(GMPolicy(), CONFIG8, traces[0],
                        metrics=InMemoryRecorder(every_k=1))

    result = benchmark(leg)
    result.check_conservation()


# ---------------------------------------------------------------------------
# Standalone sweep
# ---------------------------------------------------------------------------

def write_snapshot(rows, path):
    """Deterministic snapshot: sorted keys, no timestamps, trailing
    newline (same convention as BENCH_engine.json / BENCH_opt.json)."""
    import json

    snapshot = {
        "schema": 1,
        "budgets": {
            "off_overhead_pct": OFF_BUDGET_PCT,
            "on_overhead_pct": ON_BUDGET_PCT,
        },
        "workload": {
            "traffic": "bernoulli load=1.2 uniform(1,9)",
            "speedup": 2,
            "buffers": {"b_in": 4, "b_out": 4, "b_cross": 1},
            "metric": "overhead pct vs no-recorder baseline, best of reps",
            "sampling": "every_k=1 (worst case) in the on mode",
        },
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def main(argv=None):
    """Standalone sweep: ``python benchmarks/bench_obs.py``."""
    import argparse
    import pathlib

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="3 timed reps per leg instead of 15 (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) when a budget is exceeded")
    root = pathlib.Path(__file__).resolve().parent.parent
    parser.add_argument("--output", default=str(root / "BENCH_obs.json"),
                        help="snapshot path (default: repo-root "
                             "BENCH_obs.json)")
    args = parser.parse_args(argv)
    reps = 3 if args.quick else 15
    if args.check:
        # Budget enforcement needs the extra reps to keep best-of
        # timings stable on shared CI machines, quick or not.
        reps = max(reps, 7)

    rows = []
    violations = []
    print(f"observability overhead ({reps} timed rep(s) per leg):")
    for label, model, factory, backend in WORKLOADS:
        if backend == "fast" and not numpy_available():
            print(f"  {label:>3} {model:<8} {backend:<9} skipped (no numpy)")
            continue
        row = _bench_row(label, model, factory, backend, reps)
        rows.append(row)
        print(f"  {label:>3} {model:<8} {backend:<9} "
              f"base {row['base_slots_per_sec']:>10.1f} sl/s  "
              f"off {row['off_overhead_pct']:>+6.2f}%  "
              f"on {row['on_overhead_pct']:>+6.2f}%")
        if row["off_overhead_pct"] > OFF_BUDGET_PCT:
            violations.append(
                f"{label}/{backend}: off overhead "
                f"{row['off_overhead_pct']}% > {OFF_BUDGET_PCT}%")
        if row["on_overhead_pct"] > ON_BUDGET_PCT:
            violations.append(
                f"{label}/{backend}: on overhead "
                f"{row['on_overhead_pct']}% > {ON_BUDGET_PCT}%")

    if args.check:
        if violations:
            for v in violations:
                print(f"BUDGET VIOLATION: {v}")
            return 1
        print(f"budgets OK (off <= {OFF_BUDGET_PCT}%, "
              f"on <= {ON_BUDGET_PCT}%; payloads identical)")
        return 0

    write_snapshot(rows, args.output)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
