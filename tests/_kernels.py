"""Pin a slot-loop kernel.

The engine picks the kernel for every run (see
:mod:`repro.simulation.backends`), so a test that compares the two
kernels calls each one directly: the reference kernel through the
engine's private reference half, ``engine._run_reference``, and the
fast kernel through :func:`repro.simulation.fastpath.run_batch`, which
raises ``BackendUnsupported`` for whatever it refuses.

:func:`pin_kernel` pins a kernel for whole scenario, executor or CLI
runs instead, in-process: it moves the engine's crossover above any
batch (reference) or to 0 (fast), and it makes a run on the other
kernel fail the test: loading the fast kernel under ``reference``, any
fallback to the reference kernel under ``fast``.
"""

import sys

from repro.simulation import backends, engine
from repro.simulation.engine import _run_reference as reference_run


def fast_run(model, policy, config, trace, **options):
    """``trace`` on the fast kernel, as a batch of one lane."""
    return fast_batch(model, lambda: policy, config, [trace], **options)[0]


def reference_batch(model, factory, config, traces, **options):
    """Each trace on the reference kernel with a fresh policy; lane
    ``i``'s samples are tagged ``i``, as the fast kernel tags them."""
    return [reference_run(model, factory(), config, trace,
                          metrics_lane=lane, **options)
            for lane, trace in enumerate(traces)]


def fast_batch(model, factory, config, traces, **options):
    """``traces`` as one lockstep batch on the fast kernel."""
    from repro.simulation.fastpath import run_batch

    return run_batch(model, factory(), config, list(traces), **options)


def _refused(*args, **kwargs):
    raise AssertionError("a run pinned to the fast kernel fell back to "
                         "the reference kernel")


def _loaded():
    raise AssertionError("a run pinned to the reference kernel loaded the "
                         "fast kernel")


def pin_kernel(monkeypatch, kernel):
    """Make every trace and batch run of the engine use ``kernel``
    (``"reference"`` or ``"fast"``) until ``monkeypatch`` undoes it.
    Streaming runs keep the reference kernel."""
    if kernel == "reference":
        monkeypatch.setattr(backends, "AUTO_CROSSOVER", sys.maxsize)
        monkeypatch.setattr(engine, "load_fastpath", _loaded)
    elif kernel == "fast":
        monkeypatch.setattr(backends, "AUTO_CROSSOVER", 0)
        monkeypatch.setattr(engine, "_run_reference", _refused)
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
