"""Discrete-time simulation engine.

Implements the slot structure of Section 1.3 exactly: each time slot
consists of an **arrival phase** (arbitrarily many packets, processed in
arrival-event order), a **scheduling phase** of ``speedup`` cycles (each
an admissible schedule: a matching for CIOQ, per-port subphase transfers
for the buffered crossbar), and a **transmission phase** (at most one
packet per output port).

After the last arrival slot the engine keeps running ("drain slots", no
arrivals) until the switch is empty or a safety horizon is reached, so
that the benefit counts every packet the policy can eventually deliver —
matching the competitive framework, where sequences are finite and time
continues afterwards.  The safety horizon ``n_slots + total buffer
capacity`` always suffices: every non-empty switch transmits at least
one packet per slot once no arrivals occur (all paper policies and
baselines are work-conserving at output ports, and buffered packets keep
flowing forward because output queues drain).

The engine validates every policy decision against the switch's
feasibility rules, counts all losses, and asserts conservation at the
end of each run.

Every entry point below builds the switch and the arrival source in
one place, :func:`_simulate`, which runs the shared slot loop of
:mod:`repro.simulation.kernel` (see that module for the performance
model).  The trace and batch entries first offer the run to the
vectorized fast kernel through one dispatch, :func:`_run_fast`, which
applies the rule of :mod:`repro.simulation.backends`; the reference
kernel, :func:`_run_reference`, runs what the fast kernel does not take.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, List, Optional, Sequence, Tuple

from ..scheduling.base import CIOQPolicy, CrossbarPolicy
from ..switch.cioq import CIOQSwitch
from ..switch.config import SwitchConfig
from ..switch.crossbar import CrossbarSwitch
from ..switch.packet import Packet
from ..traffic.trace import Trace
from .backends import (
    BackendUnavailable,
    BackendUnsupported,
    auto_prefers_reference,
    load_fastpath,
)
from .kernel import ArrivalSource, run_slot_loop
from .results import SimulationResult

ArrivalSpec = Tuple[int, int, float]

_SWITCHES = {"cioq": CIOQSwitch, "crossbar": CrossbarSwitch}


def drain_bound(config: SwitchConfig) -> int:
    """Slots that always suffice to drain a full switch with no arrivals."""
    total_capacity = (
        config.n_in * config.n_out * (config.b_in + config.b_cross)
        + config.n_out * config.b_out
    )
    return total_capacity + 1


def _check_dims(trace: Trace, config: SwitchConfig) -> None:
    if trace.n_in != config.n_in or trace.n_out != config.n_out:
        raise ValueError(
            f"trace is {trace.n_in}x{trace.n_out} but switch is "
            f"{config.n_in}x{config.n_out}"
        )


def _simulate(
    model: str,
    policy,
    config: SwitchConfig,
    arrivals: Callable[[object], ArrivalSource],
    n_slots: int,
    extra_slots: int,
    record: bool,
    **loop_options,
) -> SimulationResult:
    """Run ``policy`` on a fresh ``model`` switch in the reference kernel.

    ``arrivals(switch)`` returns the per-slot arrival source; it gets
    the switch so that streaming sources can observe online state.
    """
    switch = _SWITCHES[model](config)
    policy.reset(switch)
    horizon = n_slots + extra_slots
    result = SimulationResult(
        policy_name=policy.name,
        config=config,
        n_arrival_slots=n_slots,
        horizon=horizon,
    )
    return run_slot_loop(
        switch,
        policy,
        arrivals(switch),
        n_slots,
        horizon,
        result,
        crossbar=model == "crossbar",
        record=record,
        **loop_options,
    )


def _run_fast(
    model: str,
    policy,
    config: SwitchConfig,
    traces: List[Trace],
    **options,
) -> Optional[List[SimulationResult]]:
    """The one dispatch into the fast kernel: its results for ``traces``
    when it takes the run, ``None`` when the caller should run the
    reference kernel — below the lanes x ports crossover, where the
    reference kernel wins, or when the fast kernel refuses the run."""
    for trace in traces:
        _check_dims(trace, config)
    if not traces or auto_prefers_reference(config, len(traces)):
        return None
    try:
        return load_fastpath().run_batch(model, policy, config, traces,
                                         **options)
    except (BackendUnavailable, BackendUnsupported):
        return None


def _run_reference(
    model: str,
    policy,
    config: SwitchConfig,
    trace: Trace,
    record: bool = False,
    max_extra_slots: Optional[int] = None,
    check_invariants: bool = False,
    metrics=None,
    metrics_lane: int = 0,
) -> SimulationResult:
    """``trace`` on the reference kernel, whose samples carry the lane
    tag ``metrics_lane``; tests and the kernel benchmarks call it to pin
    the reference kernel."""
    extra = drain_bound(config) if max_extra_slots is None else max_extra_slots
    return _simulate(
        model,
        policy,
        config,
        lambda switch: trace.arrival_slots().__getitem__,
        trace.n_slots,
        extra,
        record,
        check_invariants=check_invariants,
        metrics=metrics,
        metrics_lane=metrics_lane,
    )


def _run_trace(model: str, policy, config: SwitchConfig, trace: Trace,
               **options) -> SimulationResult:
    """The trace path of :func:`run_cioq` / :func:`run_crossbar`: the
    fast kernel when it takes the run, else the reference kernel."""
    fast = _run_fast(model, policy, config, [trace], **options)
    if fast is not None:
        return fast[0]
    return _run_reference(model, policy, config, trace, **options)


def _run_source(
    model: str,
    policy,
    config: SwitchConfig,
    source: Callable[[int, object], Sequence[ArrivalSpec]],
    n_slots: int,
    record: bool,
    metrics,
) -> SimulationResult:
    """The source path of the two ``*_streaming`` entries."""

    def arrivals(switch) -> ArrivalSource:
        pids = count()  # arrival-event order, as TrafficModel numbers them

        def arrivals_for(t: int) -> List[Packet]:
            return [Packet(next(pids), value, t, src, dst)
                    for src, dst, value in source(t, switch)]

        return arrivals_for

    return _simulate(model, policy, config, arrivals, n_slots,
                     drain_bound(config), record, metrics=metrics)


# ---------------------------------------------------------------------------
# CIOQ runs
# ---------------------------------------------------------------------------

def run_cioq(
    policy: CIOQPolicy,
    config: SwitchConfig,
    trace: Trace,
    record: bool = False,
    max_extra_slots: Optional[int] = None,
    check_invariants: bool = False,
    metrics=None,
) -> SimulationResult:
    """Simulate ``policy`` on a CIOQ switch over ``trace``.

    Parameters
    ----------
    record:
        Keep the full schedule/transmission logs (needed by the
        theory-shadow replay and for delay statistics; off by default
        to save memory).
    max_extra_slots:
        Cap on drain slots after the last arrival (default:
        :func:`drain_bound`).
    check_invariants:
        Assert queue-structure invariants after every phase (slow;
        used by tests).
    metrics:
        Optional recorder (see :mod:`repro.obs`); ``None`` (default)
        and disabled recorders are payload- and performance-equivalent
        to a metrics-free build.  An
        :class:`~repro.obs.InMemoryRecorder` with ``every_k=1`` keeps
        the run's end-of-slot VOQ/crosspoint/output totals in its
        series; a ``timed`` one also measures the phases, which only
        the reference kernel does.

    The engine picks the kernel (see :mod:`repro.simulation.backends`);
    both give the same result bit for bit.
    """
    return _run_trace("cioq", policy, config, trace, record=record,
                      max_extra_slots=max_extra_slots,
                      check_invariants=check_invariants, metrics=metrics)


def run_cioq_streaming(
    policy: CIOQPolicy,
    config: SwitchConfig,
    source: Callable[[int, CIOQSwitch], Sequence[ArrivalSpec]],
    n_slots: int,
    record: bool = False,
    metrics=None,
) -> SimulationResult:
    """Like :func:`run_cioq` but with arrivals produced online by
    ``source(slot, switch)`` — used by adaptive adversaries that inspect
    the online state before choosing the next arrivals.

    ``source`` is consulted for the first ``n_slots`` slots (before the
    arrival phase of each); afterwards the switch drains.  Packet ids
    are assigned in arrival-event order, exactly as
    :class:`~repro.traffic.base.TrafficModel` does for batch traces.

    Streaming sources observe online switch state, so these entries
    always run the reference kernel.
    """
    return _run_source("cioq", policy, config, source, n_slots, record,
                       metrics)


# ---------------------------------------------------------------------------
# Buffered crossbar runs
# ---------------------------------------------------------------------------

def run_crossbar(
    policy: CrossbarPolicy,
    config: SwitchConfig,
    trace: Trace,
    record: bool = False,
    max_extra_slots: Optional[int] = None,
    check_invariants: bool = False,
    metrics=None,
) -> SimulationResult:
    """Simulate ``policy`` on a buffered crossbar switch over ``trace``.

    Each scheduling cycle runs the input subphase (at most one VOQ ->
    crosspoint transfer per input port) then the output subphase (at
    most one crosspoint -> output transfer per output port), per
    Section 1.3 of the paper.  Accepts the same keyword options as
    :func:`run_cioq`.
    """
    return _run_trace("crossbar", policy, config, trace, record=record,
                      max_extra_slots=max_extra_slots,
                      check_invariants=check_invariants, metrics=metrics)


def run_crossbar_streaming(
    policy: CrossbarPolicy,
    config: SwitchConfig,
    source: Callable[[int, CrossbarSwitch], Sequence[ArrivalSpec]],
    n_slots: int,
    record: bool = False,
    metrics=None,
) -> SimulationResult:
    """Like :func:`run_crossbar` but with arrivals produced online by
    ``source(slot, switch)`` — the crossbar counterpart of
    :func:`run_cioq_streaming`, with the identical contract: the source
    is consulted for the first ``n_slots`` slots, packet ids are
    assigned in arrival-event order, and the reference kernel runs it.

    Besides adaptive adversaries, both streaming entries drive the
    memory-bounded trace-replay path: a
    :class:`~repro.traffic.base.TrafficModel`'s ``arrival_source(seed)``
    plugs in here and produces results byte-identical to running the
    materialized ``generate(n_slots, seed)`` trace.
    """
    return _run_source("crossbar", policy, config, source, n_slots, record,
                       metrics)


# ---------------------------------------------------------------------------
# Batched runs (seed ladders)
# ---------------------------------------------------------------------------

def _run_batch(
    model: str,
    policy_factory: Callable[[], object],
    config: SwitchConfig,
    traces: Sequence[Trace],
    max_extra_slots: Optional[int],
    metrics=None,
) -> List[SimulationResult]:
    traces = list(traces)
    fast = _run_fast(model, policy_factory(), config, traces,
                     max_extra_slots=max_extra_slots, metrics=metrics)
    if fast is not None:
        return fast
    # Reference fallback: lane-tag each trace's samples by batch index,
    # matching the fast kernel's lane numbering.
    return [
        _run_reference(
            model,
            policy_factory(),
            config,
            trace,
            max_extra_slots=max_extra_slots,
            metrics=metrics,
            metrics_lane=i,
        )
        for i, trace in enumerate(traces)
    ]


def run_cioq_batch(
    policy_factory: Callable[[], CIOQPolicy],
    config: SwitchConfig,
    traces: Sequence[Trace],
    *,
    max_extra_slots: Optional[int] = None,
    metrics=None,
) -> List[SimulationResult]:
    """Run a fresh policy (one per trace, built by ``policy_factory``)
    over every trace, returning results in trace order.

    A batch at or past the crossover executes in lockstep inside the
    vectorized kernel — this is how replicate seed ladders amortize the
    slot loop; a smaller one, or one the fast kernel refuses, runs the
    traces serially on the reference kernel.  By the bit-identical
    kernel contract both produce exactly the same results.
    """
    return _run_batch("cioq", policy_factory, config, traces,
                      max_extra_slots, metrics)


def run_crossbar_batch(
    policy_factory: Callable[[], CrossbarPolicy],
    config: SwitchConfig,
    traces: Sequence[Trace],
    *,
    max_extra_slots: Optional[int] = None,
    metrics=None,
) -> List[SimulationResult]:
    """Crossbar counterpart of :func:`run_cioq_batch`."""
    return _run_batch("crossbar", policy_factory, config, traces,
                      max_extra_slots, metrics)
