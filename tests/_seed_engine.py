"""Verbatim snapshot of the seed (pre-kernel) simulation engine.

Kept as the reference implementation for the kernel-equivalence tests in
``test_kernel_equivalence.py``: the refactored fast kernel in
:mod:`repro.simulation.kernel` must produce identical
:class:`~repro.simulation.results.SimulationResult` contents on every
run.  Do not edit the loop bodies below; they define the semantics.

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
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.scheduling.base import CIOQPolicy, CrossbarPolicy
from repro.switch.cioq import CIOQSwitch, ScheduleError
from repro.switch.config import SwitchConfig
from repro.switch.crossbar import CrossbarSwitch
from repro.switch.packet import Packet
from repro.traffic.trace import Trace
from repro.simulation import results
from repro.simulation.results import TransferEvent

ArrivalSpec = Tuple[int, int, float]


class SimulationResult(results.SimulationResult):
    """The package's result plus the per-packet send accounting the
    loops below call; the package's kernels account sends in bulk."""

    def record_sent(self, slot: int, j: int, p: Packet, record: bool) -> None:
        self.benefit += p.value
        self.n_sent += 1
        self.sent_per_output[j] = self.sent_per_output.get(j, 0) + 1
        self.value_per_output[j] = self.value_per_output.get(j, 0.0) + p.value
        if record:
            self.sent_pids.append(p.pid)
            self.transmit_log.append((slot, j, p.pid))


def drain_bound(config: SwitchConfig) -> int:
    """Slots that always suffice to drain a full switch with no arrivals."""
    total_capacity = (
        config.n_in * config.n_out * (config.b_in + config.b_cross)
        + config.n_out * config.b_out
    )
    return total_capacity + 1


def _apply_arrival(
    switch, policy, packet: Packet, result: SimulationResult
) -> None:
    """Process one arrival event: ask the policy, apply and account."""
    result.n_arrived += 1
    result.value_arrived += packet.value
    decision = policy.on_arrival(switch, packet)
    if not decision.accept:
        result.n_rejected += 1
        result.value_rejected += packet.value
        return
    q = switch.voq[packet.src][packet.dst]
    if decision.preempt is not None:
        if decision.preempt not in q:
            raise ScheduleError(
                f"arrival preemption victim {decision.preempt.pid} not in VOQ "
                f"({packet.src},{packet.dst})"
            )
        q.remove(decision.preempt)
        result.n_preempted_voq += 1
        result.value_preempted_voq += decision.preempt.value
    if q.is_full:
        raise ScheduleError(
            f"policy accepted packet {packet.pid} into full VOQ "
            f"({packet.src},{packet.dst}) without naming a preemption victim"
        )
    q.push(packet)
    result.n_accepted += 1
    result.value_accepted += packet.value


def _finalize(switch, result: SimulationResult) -> SimulationResult:
    residual = switch.buffered_packets()
    result.n_residual = len(residual)
    result.value_residual = sum(p.value for p in residual)
    result.check_conservation()
    return result


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
    trace_occupancy: bool = False,
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
    trace_occupancy:
        Record end-of-slot buffer occupancy totals into
        ``result.occupancy``.
    """
    if trace.n_in != config.n_in or trace.n_out != config.n_out:
        raise ValueError(
            f"trace is {trace.n_in}x{trace.n_out} but switch is "
            f"{config.n_in}x{config.n_out}"
        )
    switch = CIOQSwitch(config)
    policy.reset(switch)
    extra = drain_bound(config) if max_extra_slots is None else max_extra_slots
    horizon = trace.n_slots + extra
    result = SimulationResult(
        policy_name=policy.name,
        config=config,
        n_arrival_slots=trace.n_slots,
        horizon=horizon,
    )
    # The loop below appends each slot's occupancy totals here;
    # SimulationResult has no such field.
    result.occupancy = []

    for t in range(horizon):
        # Arrival phase.
        for p in trace.arrivals(t):
            _apply_arrival(switch, policy, p, result)
        if check_invariants:
            switch.check_invariants()

        # Scheduling phase: `speedup` cycles, each an admissible matching.
        for s in range(config.speedup):
            transfers = policy.schedule(switch, t, s)
            for tr in transfers:
                if tr.preempt is not None:
                    result.n_preempted_out += 1
                    result.value_preempted_out += tr.preempt.value
                if record:
                    result.schedule_log.append(
                        TransferEvent(
                            slot=t,
                            cycle=s,
                            src=tr.src,
                            dst=tr.dst,
                            pid=tr.packet.pid,
                            value=tr.packet.value,
                            stage="cioq",
                            preempted_pid=(
                                tr.preempt.pid if tr.preempt is not None else None
                            ),
                        )
                    )
            switch.apply_transfers(transfers)
            if check_invariants:
                switch.check_invariants()

        # Transmission phase (validation happens inside switch.transmit).
        selections = policy.select_transmissions(switch)
        sent = switch.transmit(selections)
        for p in sent:
            j = p.dst
            result.record_sent(t, j, p, record)
        if check_invariants:
            switch.check_invariants()
        if trace_occupancy:
            voq_total = sum(len(q) for row in switch.voq for q in row)
            out_total = sum(len(q) for q in switch.out)
            result.occupancy.append((t, voq_total, 0, out_total))

        if t >= trace.n_slots and switch.is_drained():
            break

    return _finalize(switch, result)


def run_cioq_streaming(
    policy: CIOQPolicy,
    config: SwitchConfig,
    source: Callable[[int, CIOQSwitch], Sequence[ArrivalSpec]],
    n_slots: int,
    record: bool = False,
) -> SimulationResult:
    """Like :func:`run_cioq` but with arrivals produced online by
    ``source(slot, switch)`` — used by adaptive adversaries that inspect
    the online state before choosing the next arrivals.

    ``source`` is consulted for the first ``n_slots`` slots (before the
    arrival phase of each); afterwards the switch drains.
    """
    switch = CIOQSwitch(config)
    policy.reset(switch)
    horizon = n_slots + drain_bound(config)
    result = SimulationResult(
        policy_name=policy.name,
        config=config,
        n_arrival_slots=n_slots,
        horizon=horizon,
    )
    pid = 0
    for t in range(horizon):
        if t < n_slots:
            for src, dst, value in source(t, switch):
                packet = Packet(pid, value, t, src, dst)
                pid += 1
                _apply_arrival(switch, policy, packet, result)

        for s in range(config.speedup):
            transfers = policy.schedule(switch, t, s)
            for tr in transfers:
                if tr.preempt is not None:
                    result.n_preempted_out += 1
                    result.value_preempted_out += tr.preempt.value
            switch.apply_transfers(transfers)

        sent = switch.transmit(policy.select_transmissions(switch))
        for p in sent:
            result.record_sent(t, p.dst, p, record)

        if t >= n_slots and switch.is_drained():
            break

    return _finalize(switch, result)


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
    trace_occupancy: bool = False,
) -> SimulationResult:
    """Simulate ``policy`` on a buffered crossbar switch over ``trace``.

    Each scheduling cycle runs the input subphase (at most one VOQ ->
    crosspoint transfer per input port) then the output subphase (at
    most one crosspoint -> output transfer per output port), per
    Section 1.3 of the paper.
    """
    if trace.n_in != config.n_in or trace.n_out != config.n_out:
        raise ValueError(
            f"trace is {trace.n_in}x{trace.n_out} but switch is "
            f"{config.n_in}x{config.n_out}"
        )
    switch = CrossbarSwitch(config)
    policy.reset(switch)
    extra = drain_bound(config) if max_extra_slots is None else max_extra_slots
    horizon = trace.n_slots + extra
    result = SimulationResult(
        policy_name=policy.name,
        config=config,
        n_arrival_slots=trace.n_slots,
        horizon=horizon,
    )
    # The loop below appends each slot's occupancy totals here;
    # SimulationResult has no such field.
    result.occupancy = []

    for t in range(horizon):
        for p in trace.arrivals(t):
            _apply_arrival(switch, policy, p, result)
        if check_invariants:
            switch.check_invariants()

        for s in range(config.speedup):
            in_transfers = policy.input_subphase(switch, t, s)
            for tr in in_transfers:
                if tr.preempt is not None:
                    result.n_preempted_cross += 1
                    result.value_preempted_cross += tr.preempt.value
                if record:
                    result.schedule_log.append(
                        TransferEvent(
                            slot=t,
                            cycle=s,
                            src=tr.src,
                            dst=tr.dst,
                            pid=tr.packet.pid,
                            value=tr.packet.value,
                            stage="in",
                            preempted_pid=(
                                tr.preempt.pid if tr.preempt is not None else None
                            ),
                        )
                    )
            switch.apply_input_subphase(in_transfers)

            out_transfers = policy.output_subphase(switch, t, s)
            for tr in out_transfers:
                if tr.preempt is not None:
                    result.n_preempted_out += 1
                    result.value_preempted_out += tr.preempt.value
                if record:
                    result.schedule_log.append(
                        TransferEvent(
                            slot=t,
                            cycle=s,
                            src=tr.src,
                            dst=tr.dst,
                            pid=tr.packet.pid,
                            value=tr.packet.value,
                            stage="out",
                            preempted_pid=(
                                tr.preempt.pid if tr.preempt is not None else None
                            ),
                        )
                    )
            switch.apply_output_subphase(out_transfers)
            if check_invariants:
                switch.check_invariants()

        sent = switch.transmit(policy.select_transmissions(switch))
        for p in sent:
            result.record_sent(t, p.dst, p, record)
        if check_invariants:
            switch.check_invariants()
        if trace_occupancy:
            voq_total = sum(len(q) for row in switch.voq for q in row)
            cross_total = sum(len(q) for row in switch.cross for q in row)
            out_total = sum(len(q) for q in switch.out)
            result.occupancy.append((t, voq_total, cross_total, out_total))

        if t >= trace.n_slots and switch.is_drained():
            break

    return _finalize(switch, result)
