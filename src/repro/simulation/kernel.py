"""Shared fast slot-loop kernel for both switch models.

:func:`run_slot_loop` is the single simulation loop behind every
reference-backend run of :mod:`repro.simulation.engine`.  It implements
the slot structure of Section 1.3 — arrival phase, ``speedup``
scheduling cycles, transmission phase — exactly once, for both the CIOQ
and the buffered crossbar model.

The kernel is written for throughput (it dominates every benchmark's
wall-clock):

* **Batched accounting.**  All counters (arrivals, acceptances,
  rejections, the three preemption sites, benefit, per-output totals)
  accumulate in plain local ints/floats and lists and are flushed into
  the :class:`~repro.simulation.results.SimulationResult` once, after
  the loop — no per-packet attribute writes on the result object.
* **Logging off by default.**  ``record=False`` runs skip every
  schedule/transmission logging branch through one local boolean, so
  the default path allocates no log entries at all.
* **O(1) drain detection.**  The kernel tracks the number of buffered
  packets incrementally (accepted − sent − preempted), so the
  "arrivals exhausted and switch empty" termination test is a counter
  comparison instead of a scan over all N² + N queues per slot.
* **Precomputed arrivals.**  Batch runs index
  :meth:`~repro.traffic.trace.Trace.arrival_slots` per-slot arrays
  directly; streaming runs pass a closure.

Validation is unchanged from the seed engine: every policy decision is
still checked against the switch's feasibility rules (full-queue
acceptance, preemption victims, admissible schedules), so a buggy policy
raises :class:`~repro.switch.cioq.ScheduleError` rather than silently
inflating benefit.  The kernel-equivalence test suite pins the kernel's
results to a verbatim snapshot of the seed engine.
"""

from __future__ import annotations

from bisect import bisect_left
from time import perf_counter
from typing import Callable, Sequence

from ..switch.cioq import ScheduleError
from ..switch.packet import Packet
from .results import SimulationResult, TransferEvent

#: A per-slot arrival source: consulted once per slot ``t`` for
#: ``t < n_arrival_slots``; returns the packets arriving in that slot.
ArrivalSource = Callable[[int], Sequence[Packet]]


def run_slot_loop(
    switch,
    policy,
    arrivals_for: ArrivalSource,
    n_arrival_slots: int,
    horizon: int,
    result: SimulationResult,
    *,
    crossbar: bool,
    record: bool = False,
    check_invariants: bool = False,
    trace_occupancy: bool = False,
    metrics=None,
    metrics_lane: int = 0,
) -> SimulationResult:
    """Run the shared slot loop and fill ``result``.

    Parameters
    ----------
    switch:
        A fresh :class:`~repro.switch.cioq.CIOQSwitch` or
        :class:`~repro.switch.crossbar.CrossbarSwitch` (matching
        ``crossbar``); ``policy.reset(switch)`` must already have run.
    arrivals_for:
        Consulted once per slot ``t < n_arrival_slots`` before the
        scheduling phase; afterwards the switch drains.
    horizon:
        Hard slot cap; the loop stops earlier as soon as arrivals are
        exhausted and the switch is empty.
    record:
        Append every transfer to ``result.schedule_log`` and every
        transmission to ``result.sent_pids`` / ``result.transmit_log``
        (the theory-shadow replay and delay statistics read them).
    metrics:
        Optional :class:`repro.obs.MetricsRecorder`.  The enabled guard
        is evaluated **once here**, before the loop: with metrics off
        (``None`` or a disabled recorder) the loop body pays only local
        boolean short-circuits — no method calls, no allocation — so
        payloads and performance are identical to a metrics-free build.
        With metrics on, every ``every_k``-th slot emits one
        ``slot_sample`` (queue occupancy, matching size, cumulative
        arrival/drop/preemption counters) and run totals are flushed
        after the loop; ``timed`` recorders additionally accumulate
        per-phase wall-times (quarantined, non-deterministic).
    metrics_lane:
        Lane tag attached to every sample (batch runs tag each trace's
        lane; single runs use 0).
    """
    config = switch.config
    voq = switch.voq
    speedup = config.speedup
    if record:
        log_event = result.schedule_log.append
        log_sent = result.sent_pids.append
        log_transmit = result.transmit_log.append

        def log(slot: int, cycle: int, transfers, stage: str) -> None:
            for tr in transfers:
                p = tr.packet
                victim = tr.preempt
                log_event(TransferEvent(
                    slot=slot,
                    cycle=cycle,
                    src=tr.src,
                    dst=tr.dst,
                    pid=p.pid,
                    value=p.value,
                    stage=stage,
                    preempted_pid=victim.pid if victim is not None else None,
                ))

    # Metrics guard: resolved once per run, never per slot.
    m = metrics if (metrics is not None and metrics.enabled) else None
    every = m.every_k if m is not None else 0
    sampling = every > 0
    timed = m is not None and m.timed
    slot_sample = m.slot_sample if sampling else None
    t_arrival = t_schedule = t_transmit = 0.0
    sent_before = 0
    ph0 = 0.0
    run0 = perf_counter() if timed else 0.0

    # Hot-path accounting: plain locals, flushed into `result` after the
    # loop.  `buffered` tracks accepted − sent − preempted, which equals
    # the number of packets resident in the switch (conservation), so
    # drain termination is O(1).
    n_arrived = 0
    value_arrived = 0.0
    n_accepted = 0
    value_accepted = 0.0
    n_rejected = 0
    value_rejected = 0.0
    n_pre_voq = 0
    v_pre_voq = 0.0
    n_pre_cross = 0
    v_pre_cross = 0.0
    n_pre_out = 0
    v_pre_out = 0.0
    benefit = 0.0
    n_sent = 0
    sent_per_output = [0] * config.n_out
    value_per_output = [0.0] * config.n_out
    buffered = 0

    on_arrival = policy.on_arrival
    select_transmissions = policy.select_transmissions
    transmit = switch.transmit
    if crossbar:
        input_subphase = policy.input_subphase
        output_subphase = policy.output_subphase
        apply_input = switch.apply_input_subphase
        apply_output = switch.apply_output_subphase
    else:
        schedule = policy.schedule
        apply_transfers = switch.apply_transfers

    t = -1  # keeps the post-loop metrics flush safe when horizon == 0
    for t in range(horizon):
        sample_slot = sampling and t % every == 0
        if sample_slot:
            sent_before = n_sent
        # -- arrival phase (events processed in arrival order) ----------
        if t < n_arrival_slots:
            if timed:
                ph0 = perf_counter()
            for p in arrivals_for(t):
                pv = p.value
                n_arrived += 1
                value_arrived += pv
                decision = on_arrival(switch, p)
                if not decision.accept:
                    n_rejected += 1
                    value_rejected += pv
                    continue
                q = voq[p.src][p.dst]
                keys = q._keys
                items = q._items
                victim = decision.preempt
                if victim is not None:
                    vidx = bisect_left(keys, victim._key)
                    if vidx >= len(items) or items[vidx].pid != victim.pid:
                        raise ScheduleError(
                            f"arrival preemption victim {victim.pid} not in "
                            f"VOQ ({p.src},{p.dst})"
                        )
                    del keys[vidx]
                    del items[vidx]
                    n_pre_voq += 1
                    v_pre_voq += victim.value
                    buffered -= 1
                if len(items) >= q.capacity:
                    raise ScheduleError(
                        f"policy accepted packet {p.pid} into full VOQ "
                        f"({p.src},{p.dst}) without naming a preemption victim"
                    )
                key = p._key
                idx = bisect_left(keys, key)
                keys.insert(idx, key)
                items.insert(idx, p)
                n_accepted += 1
                value_accepted += pv
                buffered += 1
            if timed:
                t_arrival += perf_counter() - ph0
            if check_invariants:
                switch.check_invariants()

        # -- scheduling phase: `speedup` admissible cycles ---------------
        if timed:
            ph0 = perf_counter()
        if crossbar:
            for s in range(speedup):
                transfers = input_subphase(switch, t, s)
                if transfers:
                    for tr in transfers:
                        victim = tr.preempt
                        if victim is not None:
                            n_pre_cross += 1
                            v_pre_cross += victim.value
                            buffered -= 1
                    if record:
                        log(t, s, transfers, "in")
                    apply_input(transfers)
                transfers = output_subphase(switch, t, s)
                if transfers:
                    for tr in transfers:
                        victim = tr.preempt
                        if victim is not None:
                            n_pre_out += 1
                            v_pre_out += victim.value
                            buffered -= 1
                    if record:
                        log(t, s, transfers, "out")
                    apply_output(transfers)
                if check_invariants:
                    switch.check_invariants()
        else:
            for s in range(speedup):
                transfers = schedule(switch, t, s)
                if transfers:
                    for tr in transfers:
                        victim = tr.preempt
                        if victim is not None:
                            n_pre_out += 1
                            v_pre_out += victim.value
                            buffered -= 1
                    if record:
                        log(t, s, transfers, "cioq")
                    apply_transfers(transfers)
                if check_invariants:
                    switch.check_invariants()
        if timed:
            t_schedule += perf_counter() - ph0

        # -- transmission phase (validated inside switch.transmit) -------
        if timed:
            ph0 = perf_counter()
        selections = select_transmissions(switch)
        if selections:
            for p in transmit(selections):
                pv = p.value
                j = p.dst
                benefit += pv
                n_sent += 1
                buffered -= 1
                sent_per_output[j] += 1
                value_per_output[j] += pv
                if record:
                    log_sent(p.pid)
                    log_transmit((t, j, p.pid))
        if timed:
            t_transmit += perf_counter() - ph0
        if check_invariants:
            switch.check_invariants()
        if trace_occupancy:
            result.occupancy.append((t,) + switch.occupancy_totals())
        if sample_slot:
            occ = switch.occupancy_totals()
            slot_sample(t, metrics_lane, occ[0], occ[1], occ[2],
                        n_sent - sent_before, n_arrived, n_sent,
                        n_rejected, n_pre_voq + n_pre_cross + n_pre_out)

        if buffered == 0 and t >= n_arrival_slots:
            break

    # -- flush accounting and finalize ----------------------------------
    result.n_arrived = n_arrived
    result.value_arrived = value_arrived
    result.n_accepted = n_accepted
    result.value_accepted = value_accepted
    result.n_rejected = n_rejected
    result.value_rejected = value_rejected
    result.n_preempted_voq = n_pre_voq
    result.value_preempted_voq = v_pre_voq
    result.n_preempted_cross = n_pre_cross
    result.value_preempted_cross = v_pre_cross
    result.n_preempted_out = n_pre_out
    result.value_preempted_out = v_pre_out
    result.benefit = benefit
    result.n_sent = n_sent
    result.sent_per_output = {
        j: c for j, c in enumerate(sent_per_output) if c
    }
    result.value_per_output = {
        j: value_per_output[j] for j in result.sent_per_output
    }

    residual = switch.buffered_packets()
    result.n_residual = len(residual)
    result.value_residual = sum(p.value for p in residual)
    result.check_conservation()

    # -- metrics flush (run-level counters, once per run) ----------------
    if m is not None:
        m.counter("runs_total")
        m.counter("slots_total", t + 1)
        m.counter("packets_arrived_total", n_arrived)
        m.counter("packets_sent_total", n_sent)
        m.counter("packets_rejected_total", n_rejected)
        m.counter("packets_preempted_total",
                  n_pre_voq + n_pre_cross + n_pre_out)
        m.counter("benefit_total", benefit)
        if timed:
            m.add_time("phase_arrival_seconds", t_arrival)
            m.add_time("phase_schedule_seconds", t_schedule)
            m.add_time("phase_transmit_seconds", t_transmit)
            m.add_time("run_seconds", perf_counter() - run0)
    return result
