"""How the engine picks the kernel for a run.

The slot loop has two kernels, and the engine picks one per run:

the reference kernel
    The pure-Python object-per-packet loop
    (:mod:`repro.simulation.kernel`).  It has no third-party
    dependencies — importing and running it never requires numpy — and
    it is the semantic ground truth the other kernel is pinned to.

the fast kernel
    The vectorized numpy loop (:mod:`repro.simulation.fastpath`).  It
    batches queue state across ports *and* across whole traces (seed
    ladders), and is required to be **bit-identical** to the reference
    kernel on every observable ``SimulationResult`` field.  It raises
    :class:`BackendUnavailable` when numpy is not installed and
    :class:`BackendUnsupported` for features it does not implement
    (event recording, invariant checking, timed recorders, policy
    classes outside its table, queue capacities or packet counts past
    its dtypes).

The rule: a run of ``lanes`` lockstep traces tries the fast kernel once
``lanes x max(n_in, n_out)`` reaches :data:`AUTO_CROSSOVER`, and falls
back to the reference kernel, silently, when the fast kernel refuses it
or numpy is missing.  Below the crossover the reference kernel runs
straight away and the fast kernel is never imported.  Streaming sources
always run on the reference kernel.

Because the two kernels are interchangeable by contract, the kernel is
deliberately *excluded* from sweep cache keys and manifests: a cached
payload is valid whichever kernel produced it.  The differential tests
in ``tests/test_backend_equivalence.py`` make that contract safe; they
pin a kernel by calling it directly (:func:`repro.simulation.fastpath
.run_batch`, or the engine's private ``_run_reference``).
"""

from __future__ import annotations

import importlib.util

#: The crossover in ``lanes x ports``: the lockstep traces of one run
#: times the larger side of the switch.  Below it the vectorized
#: kernel's fixed per-slot numpy cost eats its win, for all four paper
#: policies alike.  The evidence is ``BENCH_engine.json``'s crossover
#: rows; ``tests/test_package.py`` checks this value against them.
AUTO_CROSSOVER = 64


def auto_prefers_reference(config, lanes: int) -> bool:
    """True when the engine should skip the fast kernel for a run of
    ``lanes`` lockstep traces on a switch of ``config``'s size.

    Purely a scheduling hint — by the bit-identical kernel contract it
    never changes a result, only which kernel produces it — so the
    engine's dispatch consults it and nothing else does.
    """
    return lanes * max(config.n_in, config.n_out) < AUTO_CROSSOVER


class BackendError(RuntimeError):
    """Base class for the fast kernel's refusals."""


class BackendUnavailable(BackendError):
    """The fast kernel cannot run in this environment (numpy is not
    installed)."""


class BackendUnsupported(BackendError):
    """The fast kernel does not implement the requested feature
    (e.g. ``record=True`` or an unknown policy class)."""


def numpy_available() -> bool:
    """True when numpy is importable (probed without importing it).

    Treats a broken or explicitly blocked install (``find_spec``
    raising, e.g. ``sys.modules["numpy"] = None`` in tests) the same as
    an absent one.
    """
    try:
        return importlib.util.find_spec("numpy") is not None
    except (ImportError, ValueError):
        return False


def load_fastpath():
    """Import and return :mod:`repro.simulation.fastpath`.

    Raises :class:`BackendUnavailable` when numpy is missing, so the
    engine can tell "environment cannot" from "feature not implemented"
    (:class:`BackendUnsupported`); it falls back on both.
    """
    if not numpy_available():
        raise BackendUnavailable(
            "the fast kernel requires numpy, which is not installed"
        )
    from . import fastpath

    return fastpath
