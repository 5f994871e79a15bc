"""Backend registry for the slot-loop engine.

The engine entry points (:func:`repro.simulation.engine.run_cioq` and
friends) accept a ``backend`` argument naming one of three execution
strategies for the arrival/schedule/transmit slot loop:

``reference``
    The pure-Python object-per-packet kernel
    (:mod:`repro.simulation.kernel`).  It has no third-party
    dependencies — importing and running it never requires numpy — and
    it is the semantic ground truth every other backend is pinned to.

``fast``
    The vectorized numpy kernel (:mod:`repro.simulation.fastpath`).
    It batches queue state across ports *and* across whole traces
    (seed ladders), and is required to be **bit-identical** to the
    reference backend on every observable ``SimulationResult`` field.
    Requesting it raises :class:`BackendUnavailable` when numpy is not
    installed and :class:`BackendUnsupported` for features it does not
    implement (streaming sources, event recording, invariant checking,
    or policy classes outside its table).

``auto``
    Try ``fast``; on :class:`BackendUnavailable` or
    :class:`BackendUnsupported` fall back to ``reference`` silently.
    This is the CLI's default, and the right one for sweeps that mix
    batchable policy points with exotic ones.  ``auto`` also applies
    one size rule, :data:`AUTO_CROSSOVER`: a run whose ``lanes x
    ports`` falls below it goes straight to the reference kernel
    (``fast`` never applies the rule — an explicit request is honored
    as-is).

Because the two backends are interchangeable by contract, backend
choice is deliberately *excluded* from sweep cache keys: a cached
payload is valid regardless of which backend produced it.  The
differential test matrix in ``tests/test_backend_equivalence.py`` is
what makes that contract safe.
"""

from __future__ import annotations

import importlib.util
from typing import Tuple

#: Every recognised backend name, in documentation order.
BACKENDS: Tuple[str, ...] = ("reference", "fast", "auto")

#: The engine-wide default: the numpy-free ground truth.  The CLI
#: defaults to ``auto`` instead.
DEFAULT_BACKEND = "reference"

#: The ``auto`` backend's crossover in ``lanes x ports``: the lockstep
#: traces of one run times the larger side of the switch.  Below it the
#: vectorized kernel's fixed per-slot numpy cost eats its win, for all
#: four paper policies alike.  The evidence is ``BENCH_engine.json``'s
#: crossover rows; ``tests/test_package.py`` checks this value against
#: them.
AUTO_CROSSOVER = 64


def auto_prefers_reference(config, lanes: int) -> bool:
    """True when the ``auto`` backend should skip the fast kernel for a
    run of ``lanes`` lockstep traces on a switch of ``config``'s size.

    Purely a scheduling hint — by the bit-identical backend contract it
    never changes a result, only which kernel produces it — so it is
    consulted by the engine dispatch for ``backend="auto"`` and
    nowhere else.
    """
    return lanes * max(config.n_in, config.n_out) < AUTO_CROSSOVER


class BackendError(RuntimeError):
    """Base class for backend-selection failures."""


class BackendUnavailable(BackendError):
    """The requested backend cannot run in this environment
    (e.g. ``fast`` without numpy installed)."""


class BackendUnsupported(BackendError):
    """The requested backend does not implement the requested feature
    (e.g. ``fast`` with ``record=True`` or an unknown policy class)."""


def validate_backend(name: str) -> str:
    """Return ``name`` if it is a registered backend, else raise
    ``ValueError`` listing the valid choices."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {', '.join(BACKENDS)}"
        )
    return name


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


def available_backends() -> Tuple[str, ...]:
    """The subset of :data:`BACKENDS` usable in this environment.

    ``reference`` and ``auto`` are always usable (``auto`` degrades to
    ``reference``); ``fast`` requires numpy.
    """
    if numpy_available():
        return BACKENDS
    return tuple(b for b in BACKENDS if b != "fast")


def load_fastpath():
    """Import and return :mod:`repro.simulation.fastpath`.

    Raises :class:`BackendUnavailable` when numpy is missing, so
    callers can distinguish "environment cannot" from "feature not
    implemented" (:class:`BackendUnsupported`).
    """
    if not numpy_available():
        raise BackendUnavailable(
            "the 'fast' backend requires numpy, which is not installed; "
            "use backend='reference' or backend='auto'"
        )
    from . import fastpath

    return fastpath
