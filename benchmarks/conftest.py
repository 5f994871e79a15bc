"""Shared helpers for the benchmark/experiment harness.

Every ``bench_*.py`` module regenerates one table or figure of the
evaluation (see DESIGN.md Section 6 and EXPERIMENTS.md).  Experiment
payloads run once under ``benchmark.pedantic`` (they are full
simulations plus exact-OPT solves, not microseconds-scale kernels) and
print their tables live via ``emit`` so that

    pytest benchmarks/ --benchmark-only

reproduces the evaluation in the console.
"""

from __future__ import annotations

import os

import pytest

from repro.parallel import SweepExecutor


@pytest.fixture(scope="session")
def sweep_executor():
    """Shared executor for the table benchmarks' sweep calls.

    Serial by default (so timings stay comparable); set
    ``REPRO_BENCH_WORKERS=N`` to fan sweep points out over N processes
    and ``REPRO_BENCH_CACHE=DIR`` to reuse point payloads across runs.
    Results are bit-identical either way.
    """
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0") or "0")
    cache_dir = os.environ.get("REPRO_BENCH_CACHE") or None
    return SweepExecutor(workers=workers, cache_dir=cache_dir)


@pytest.fixture
def emit(capsys):
    """Print around pytest's capture so tables appear in normal runs."""

    def _emit(text: str) -> None:
        with capsys.disabled():
            print(text)

    return _emit


def run_once(benchmark, fn, *args, **kwargs):
    """Time one execution of an experiment payload."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)


def benefit_pairs(run, label):
    """Per-seed ``(ONL, OPT)`` payload benefits of one policy column of a
    scenario run with OPT.  No online policy may beat the offline
    optimum: a pair with ONL above OPT means the offline model or the
    engine is wrong."""
    benefit = {(m["seed"], m["policy"]): m["benefit"] for m in run.metrics}
    pairs = [(benefit[seed, label], benefit[seed, "OPT"])
             for seed in run.spec.seeds]
    for onl, opt in pairs:
        assert onl <= opt + 1e-6, (
            f"{run.spec.name}: online benefit {onl} exceeds OPT {opt}")
    return pairs
