"""Simulation substrate: the fast slot-loop kernel, the engine entry
points, the backend registry, and result records."""

from .backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    BackendError,
    BackendUnavailable,
    BackendUnsupported,
    available_backends,
    numpy_available,
    validate_backend,
)
from .engine import (
    drain_bound,
    run_cioq,
    run_cioq_batch,
    run_cioq_streaming,
    run_crossbar_streaming,
    run_crossbar,
    run_crossbar_batch,
)
from .kernel import run_slot_loop
from .results import SimulationResult, TransferEvent

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "BackendError",
    "BackendUnavailable",
    "BackendUnsupported",
    "available_backends",
    "numpy_available",
    "validate_backend",
    "drain_bound",
    "run_cioq",
    "run_cioq_batch",
    "run_cioq_streaming",
    "run_crossbar_streaming",
    "run_crossbar",
    "run_crossbar_batch",
    "run_slot_loop",
    "SimulationResult",
    "TransferEvent",
]
