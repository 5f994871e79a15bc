"""Tests for the discrete-time simulation engine."""

import pytest

from _kernels import fast_batch, fast_run, reference_run
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
        assert len(res.transmit_log) == res.n_sent
        assert len(res.schedule_log) >= res.n_sent  # every sent was transferred

    def test_no_record_by_default(self, small_config, unit_trace):
        res = run_cioq(GMPolicy(), small_config, unit_trace)
        assert res.schedule_log == []
        assert res.transmit_log == []

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
            sum(by_pid[pid] for _, _, pid in res.transmit_log)
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
    hook: off leaves both logs empty, on fills them in step with the
    run's counters."""

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_off_keeps_logs_empty(self, entry, small_config, weighted_trace):
        res = ENTRIES[entry](small_config, weighted_trace, False)
        assert res.n_sent > 0
        assert res.schedule_log == []
        assert res.transmit_log == []

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_on_logs_match_counters(self, entry, small_config,
                                    weighted_trace):
        res = ENTRIES[entry](small_config, weighted_trace, True)
        by_pid = {p.pid: p for p in weighted_trace.packets}
        assert len(res.transmit_log) == res.n_sent
        sent = [pid for _, _, pid in res.transmit_log]
        for slot, j, pid in res.transmit_log:
            assert by_pid[pid].dst == j
            assert slot >= by_pid[pid].arrival
        assert sum(by_pid[pid].value for pid in sent) == (
            pytest.approx(res.benefit))
        assert set(sent) <= {ev.pid for ev in res.schedule_log}
        stages = {ev.stage for ev in res.schedule_log}
        assert stages == ({"cioq"} if entry.startswith("cioq")
                          else {"in", "out"})
        # Transfer-time preemptions are logged with their victim; the
        # arrival-time (VOQ) ones are not transfers.
        victims = [ev.preempted_pid for ev in res.schedule_log
                   if ev.preempted_pid is not None]
        assert len(victims) == res.n_preempted_cross + res.n_preempted_out
        assert not set(victims) & set(sent)


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
        assert sorted(pid for _, _, pid in first.transmit_log) == list(
            range(8))
        assert first.schedule_log == second.schedule_log
        assert first.transmit_log == second.transmit_log

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


class TestResidualValue:
    """``value_residual`` adds the buffered values left to right, head to
    tail, like every other accumulator, on both kernels.  Builtin
    ``sum()`` of floats is compensated from Python 3.12 on and would
    read 1.0000000000000002 here."""

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    @pytest.mark.parametrize("model, policy_cls", [
        ("cioq", GMPolicy), ("cioq", PGPolicy),
        ("crossbar", CGUPolicy), ("crossbar", CPGPolicy),
    ], ids=["gm", "pg", "cgu", "cpg"])
    def test_left_to_right(self, model, policy_cls, backend):
        tiny = 2.0 ** -53
        # One VOQ; slot 0 sends one 1.0 and leaves 1.0, tiny, tiny.
        trace = Trace([Packet(0, 1.0, 0, 0, 0), Packet(1, 1.0, 0, 0, 0),
                       Packet(2, tiny, 0, 0, 0), Packet(3, tiny, 0, 0, 0)],
                      1, 1)
        config = SwitchConfig(n_in=1, n_out=1, b_in=4, b_out=1)
        run = reference_run if backend == "reference" else fast_run
        res = run(model, policy_cls(), config, trace, max_extra_slots=0)
        assert (res.n_sent, res.n_residual) == (1, 3)
        assert res.value_residual == 1.0


class TestLeftToRightSums:
    """Float totals outside the kernels add left to right too, through
    ``repro.switch.packet.sequential_sum``.  The values 1.0, 2**-53 and
    2**-53 are scaled by 2**53 here, so that an exact OPT delivers all
    three (it drops packets worth 2**-53, below the solver's cost
    tolerance) and the result aggregates' 6-digit rounding keeps the
    last bit.  Left to right they total 2**53; builtin ``sum()``, which
    is compensated from Python 3.12 on, would total 2**53 + 2."""

    BIG = 2.0 ** 53
    CONFIG = SwitchConfig.square(3, speedup=1, b_in=1, b_out=1, b_cross=1)

    def _trace(self):
        # Disjoint ports: nothing contends, so OPT delivers every packet.
        return Trace([Packet(0, self.BIG, 0, 0, 0), Packet(1, 1.0, 0, 1, 1),
                      Packet(2, 1.0, 0, 2, 2)], 3, 3)

    def test_trace_total_value(self):
        assert self._trace().total_value == self.BIG

    def test_capacity_upper_bound(self):
        from repro.offline import capacity_upper_bound

        assert capacity_upper_bound(self._trace(), self.CONFIG) == self.BIG

    @pytest.mark.parametrize("model", ["cioq", "crossbar"])
    def test_exact_opt_benefit(self, model):
        from repro.offline import solve_opt

        res = solve_opt(self._trace(), self.CONFIG, model=model)
        assert res.accepted_pids == [0, 1, 2]
        assert res.benefit == self.BIG

    def test_compute_aggregates(self):
        from repro.scenarios.runner import compute_aggregates

        (row,) = compute_aggregates(["gm"], {"gm": [self.BIG, 1.0, 1.0]})
        assert row["mean_benefit"] == round(self.BIG / 3, 6)


class TestValueConservation:
    """``check_conservation`` holds the value totals to within 1e-9 of
    the run's arrived value: float totals of large values round, so an
    absolute tolerance fails ordinary runs of values from 1e6 up, while
    a total off by one packet must still fail."""

    SPEC = """\
name = "big-values"
model = "cioq"
traffic = "bernoulli"
values = "uniform"
slots = 50
seeds = [0, 1, 2, 3]
include_opt = false
policies = [{name = "pg"}]

[switch]
n_in = 4
n_out = 4
b_in = 1
b_out = 1

[traffic_params]
load = 2.0

[value_params]
lo = 1e6
hi = 1e7
"""

    def test_large_values_spec_runs(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "big-values.toml"
        path.write_text(self.SPEC)
        assert main(["scenarios", "run", "--file", str(path),
                     "--no-artifacts"]) == 0
        assert "pg" in capsys.readouterr().out

    @pytest.mark.parametrize("model, policy_cls", [
        ("cioq", PGPolicy), ("crossbar", CPGPolicy),
    ])
    def test_large_values_fast_batch(self, model, policy_cls):
        pytest.importorskip("numpy")
        tm = BernoulliTraffic(4, 4, load=2.0,
                              value_model=uniform_values(1e6, 1e7))
        traces = [tm.generate(50, seed=s) for s in range(16)]
        config = SwitchConfig.square(4, b_in=1, b_out=1, b_cross=1)
        results = fast_batch(model, policy_cls, config, traces)
        assert min(res.n_preempted for res in results) > 0

    @pytest.mark.parametrize("field", [
        "value_arrived", "value_accepted", "value_rejected", "benefit",
        "value_preempted_voq", "value_preempted_out",
    ])
    def test_off_by_the_smallest_packet_raises(self, field):
        import dataclasses

        tm = BernoulliTraffic(4, 4, load=2.0,
                              value_model=uniform_values(1e6, 1e7))
        trace = tm.generate(50, seed=0)
        config = SwitchConfig.square(4, speedup=2, b_in=1, b_out=1)
        res = run_cioq(PGPolicy(), config, trace)
        assert res.n_preempted_voq and res.n_preempted_out
        res.check_conservation()
        smallest = min(p.value for p in trace.packets)
        broken = dataclasses.replace(
            res, **{field: getattr(res, field) + smallest})
        with pytest.raises(AssertionError, match="value conservation"):
            broken.check_conservation()


class TestZeroHorizon:
    """An empty trace run with ``max_extra_slots=0`` has a horizon of 0
    and runs no slot on either kernel: no series sample and a
    ``slots_total`` of 0 (the fast kernel used to run slot 0)."""

    @pytest.mark.parametrize("model, policy_cls", [
        ("cioq", GMPolicy), ("crossbar", CPGPolicy),
    ], ids=["gm", "cpg"])
    def test_no_slot_runs(self, model, policy_cls, small_config):
        from repro.obs import InMemoryRecorder

        results = {}
        for kernel, run in (("reference", reference_run), ("fast", fast_run)):
            rec = InMemoryRecorder(every_k=1)
            res = run(model, policy_cls(), small_config, Trace([], 3, 3),
                      max_extra_slots=0, metrics=rec)
            results[kernel] = (res.horizon, rec.snapshot())
        assert results["fast"] == results["reference"]
        horizon, snapshot = results["fast"]
        assert (horizon, snapshot["series"]) == (0, [])
        assert snapshot["counters"]["slots_total"] == 0
