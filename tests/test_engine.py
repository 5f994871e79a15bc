"""Tests for the discrete-time simulation engine."""

import pytest

from repro.core.cgu import CGUPolicy
from repro.core.cpg import CPGPolicy
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.scheduling.base import ArrivalDecision, CIOQPolicy
from repro.simulation.engine import (
    drain_bound,
    run_cioq,
    run_cioq_streaming,
    run_crossbar,
    run_crossbar_streaming,
)
from repro.switch.cioq import ScheduleError, Transfer
from repro.switch.config import SwitchConfig
from repro.switch.crossbar import CrossbarSwitch
from repro.switch.packet import Packet
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.trace import Trace
from repro.traffic.values import uniform_values


class TestDrainBound:
    def test_covers_total_capacity(self):
        c = SwitchConfig.square(3, b_in=2, b_out=4, b_cross=1)
        assert drain_bound(c) == 3 * 3 * (2 + 1) + 3 * 4 + 1


class TestRunCIOQ:
    def test_dimension_mismatch_raises(self, small_config):
        trace = BernoulliTraffic(2, 2, load=0.5).generate(5, seed=0)
        with pytest.raises(ValueError, match="trace is"):
            run_cioq(GMPolicy(), small_config, trace)

    def test_empty_trace(self, small_config):
        res = run_cioq(GMPolicy(), small_config, Trace([], 3, 3))
        assert res.benefit == 0.0
        assert res.n_arrived == 0

    def test_conservation_always(self, small_config, unit_trace):
        res = run_cioq(GMPolicy(), small_config, unit_trace)
        res.check_conservation()

    def test_switch_drains_after_arrivals(self, small_config, unit_trace):
        res = run_cioq(GMPolicy(), small_config, unit_trace)
        assert res.n_residual == 0

    def test_max_extra_slots_zero_leaves_residual(self, small_config):
        """Cutting the horizon right at the last arrival strands packets."""
        trace = BernoulliTraffic(3, 3, load=2.0).generate(10, seed=1)
        res = run_cioq(GMPolicy(), small_config, trace, max_extra_slots=0)
        assert res.n_residual > 0
        res.check_conservation()

    def test_record_collects_logs(self, small_config, unit_trace):
        res = run_cioq(GMPolicy(), small_config, unit_trace, record=True)
        assert len(res.sent_pids) == res.n_sent
        assert len(res.transmit_log) == res.n_sent
        assert len(res.schedule_log) >= res.n_sent  # every sent was transferred

    def test_no_record_by_default(self, small_config, unit_trace):
        res = run_cioq(GMPolicy(), small_config, unit_trace)
        assert res.schedule_log == []
        assert res.sent_pids == []

    def test_speedup_improves_contended_throughput(self):
        trace = BernoulliTraffic(4, 4, load=1.0).generate(40, seed=3)
        base = SwitchConfig.square(4, speedup=1, b_in=1, b_out=1)
        fast = SwitchConfig.square(4, speedup=3, b_in=1, b_out=1)
        r1 = run_cioq(GMPolicy(), base, trace)
        r3 = run_cioq(GMPolicy(), fast, trace)
        assert r3.n_sent >= r1.n_sent

    def test_benefit_equals_sum_of_sent_values(self, small_config):
        trace = BernoulliTraffic(
            3, 3, load=1.0, value_model=uniform_values(1, 9)
        ).generate(15, seed=4)
        res = run_cioq(PGPolicy(), small_config, trace, record=True)
        by_pid = {p.pid: p.value for p in trace.packets}
        assert res.benefit == pytest.approx(
            sum(by_pid[pid] for pid in res.sent_pids)
        )

    def test_per_output_counters(self, small_config, unit_trace):
        res = run_cioq(GMPolicy(), small_config, unit_trace)
        assert sum(res.sent_per_output.values()) == res.n_sent
        assert sum(res.value_per_output.values()) == pytest.approx(res.benefit)


class BadPolicy(CIOQPolicy):
    """Accepts into full queues (invalid) to test engine validation."""

    name = "bad"

    def on_arrival(self, switch, packet):
        return ArrivalDecision.accepted()

    def schedule(self, switch, slot, cycle):
        return []


class DoubleMatchPolicy(CIOQPolicy):
    """Violates the matching property to test engine validation."""

    name = "double"

    def on_arrival(self, switch, packet):
        if switch.voq[packet.src][packet.dst].is_full:
            return ArrivalDecision.reject()
        return ArrivalDecision.accepted()

    def schedule(self, switch, slot, cycle):
        transfers = []
        for j in range(switch.n_out):
            q = switch.voq[0][j]
            head = q.head()
            if head is not None:
                transfers.append(Transfer(0, j, head))
        return transfers if len(transfers) >= 2 else []


class TestEngineValidation:
    def test_overflow_acceptance_rejected(self, small_config):
        trace = BernoulliTraffic(3, 3, load=3.0).generate(10, seed=0)
        with pytest.raises(ScheduleError):
            run_cioq(BadPolicy(), small_config, trace)

    def test_double_input_match_rejected(self, small_config):
        trace = Trace(
            [Packet(0, 1.0, 0, 0, 0), Packet(1, 1.0, 0, 0, 1)], 3, 3
        )
        with pytest.raises(ScheduleError, match="input port"):
            run_cioq(DoubleMatchPolicy(), small_config, trace)


class TestRunCrossbar:
    def test_conservation(self, small_config, unit_trace):
        res = run_crossbar(CGUPolicy(), small_config, unit_trace)
        res.check_conservation()

    def test_record_stages(self, small_config, unit_trace):
        res = run_crossbar(CGUPolicy(), small_config, unit_trace, record=True)
        stages = {ev.stage for ev in res.schedule_log}
        assert stages <= {"in", "out"}
        assert "in" in stages and "out" in stages

    def test_dimension_mismatch(self, small_config):
        trace = BernoulliTraffic(2, 2, load=0.5).generate(5, seed=0)
        with pytest.raises(ValueError):
            run_crossbar(CGUPolicy(), small_config, trace)

    def test_crossbar_vs_cioq_same_trace(self, small_config, unit_trace):
        """Both engines accept the same trace type and conserve."""
        r1 = run_cioq(GMPolicy(), small_config, unit_trace)
        r2 = run_crossbar(CGUPolicy(), small_config, unit_trace)
        r1.check_conservation()
        r2.check_conservation()


class TestStreaming:
    def test_streaming_matches_batch_for_same_arrivals(self, small_config):
        trace = BernoulliTraffic(3, 3, load=1.0).generate(15, seed=8)
        by_slot = {}
        for p in trace.packets:
            by_slot.setdefault(p.arrival, []).append((p.src, p.dst, p.value))

        def source(slot, switch):
            return by_slot.get(slot, [])

        stream = run_cioq_streaming(
            GMPolicy(), small_config, source, n_slots=trace.n_slots
        )
        batch = run_cioq(GMPolicy(), small_config, trace)
        assert stream.benefit == batch.benefit
        assert stream.n_rejected == batch.n_rejected

    def test_streaming_conservation(self, small_config):
        def source(slot, switch):
            return [(slot % 3, (slot + 1) % 3, 1.0)]

        res = run_cioq_streaming(GMPolicy(), small_config, source, n_slots=12)
        res.check_conservation()
        assert res.n_arrived == 12


def _slot_source(trace):
    """A streaming source that replays ``trace``'s arrivals slot by slot."""
    by_slot = {}
    for p in trace.packets:
        by_slot.setdefault(p.arrival, []).append((p.src, p.dst, p.value))
    return lambda slot, switch: by_slot.get(slot, [])


#: The four single-run entry points, as ``run(config, trace, record)``.
ENTRIES = {
    "cioq": lambda config, trace, record: run_cioq(
        PGPolicy(), config, trace, record=record),
    "crossbar": lambda config, trace, record: run_crossbar(
        CPGPolicy(), config, trace, record=record),
    "cioq-streaming": lambda config, trace, record: run_cioq_streaming(
        PGPolicy(), config, _slot_source(trace), trace.n_slots,
        record=record),
    "crossbar-streaming": lambda config, trace, record: run_crossbar_streaming(
        CPGPolicy(), config, _slot_source(trace), trace.n_slots,
        record=record),
}

STREAMING = {"cioq": (run_cioq_streaming, PGPolicy),
             "crossbar": (run_crossbar_streaming, CPGPolicy)}


class TestRecordFlag:
    """Every entry point hands ``record`` to the kernel's one logging
    hook: off leaves the three logs empty, on fills them in step with
    the run's counters."""

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_off_keeps_logs_empty(self, entry, small_config, weighted_trace):
        res = ENTRIES[entry](small_config, weighted_trace, False)
        assert res.n_sent > 0
        assert res.schedule_log == []
        assert res.sent_pids == []
        assert res.transmit_log == []

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_on_logs_match_counters(self, entry, small_config,
                                    weighted_trace):
        res = ENTRIES[entry](small_config, weighted_trace, True)
        by_pid = {p.pid: p for p in weighted_trace.packets}
        assert len(res.sent_pids) == len(res.transmit_log) == res.n_sent
        assert [pid for _, _, pid in res.transmit_log] == res.sent_pids
        for slot, j, pid in res.transmit_log:
            assert by_pid[pid].dst == j
            assert slot >= by_pid[pid].arrival
        assert sum(by_pid[pid].value for pid in res.sent_pids) == (
            pytest.approx(res.benefit))
        assert set(res.sent_pids) <= {ev.pid for ev in res.schedule_log}
        stages = {ev.stage for ev in res.schedule_log}
        assert stages == ({"cioq"} if entry.startswith("cioq")
                          else {"in", "out"})
        # Transfer-time preemptions are logged with their victim; the
        # arrival-time (VOQ) ones are not transfers.
        victims = [ev.preempted_pid for ev in res.schedule_log
                   if ev.preempted_pid is not None]
        assert len(victims) == res.n_preempted_cross + res.n_preempted_out
        assert not set(victims) & set(res.sent_pids)


class TestStreamingEntries:
    """The shared source path behind both ``*_streaming`` entries."""

    @pytest.mark.parametrize("model", sorted(STREAMING))
    def test_pids_restart_every_run(self, model, small_config):
        """Packet ids are numbered per run from 0, so rerunning one
        source reproduces the run log for log."""
        run, policy_cls = STREAMING[model]

        def source(slot, switch):
            return [(slot % 3, (slot + 1) % 3, 1.0 + slot)]

        first, second = (run(policy_cls(), small_config, source, 8,
                             record=True) for _ in range(2))
        assert sorted(first.sent_pids) == list(range(8))
        assert first.sent_pids == second.sent_pids
        assert first.schedule_log == second.schedule_log
        assert first.transmit_log == second.transmit_log

    @pytest.mark.parametrize("model", sorted(STREAMING))
    def test_unknown_backend_rejected(self, model, small_config):
        run, policy_cls = STREAMING[model]
        with pytest.raises(ValueError, match="unknown backend"):
            run(policy_cls(), small_config, lambda t, sw: [], 4,
                backend="gpu")

    def test_crossbar_source_observes_its_switch(self, small_config):
        """The source sees the run's own crossbar switch, once per
        arrival slot and never during the drain."""
        seen = []

        def source(slot, switch):
            seen.append(switch)
            return [(0, slot % 3, 1.0)]

        res = run_crossbar_streaming(CGUPolicy(), small_config, source, 5)
        assert len(seen) == 5
        assert isinstance(seen[0], CrossbarSwitch)
        assert all(sw is seen[0] for sw in seen)
        assert res.n_arrived == 5 and res.n_residual == 0
