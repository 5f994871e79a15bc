"""Simulation substrate: the slot-loop kernels, the engine entry points
that pick between them, and result records."""

from .backends import (
    BackendError,
    BackendUnavailable,
    BackendUnsupported,
    numpy_available,
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
    "BackendError",
    "BackendUnavailable",
    "BackendUnsupported",
    "numpy_available",
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
