"""Fast kernel vs. seed engine: results must be identical.

The shared slot-loop kernel (:mod:`repro.simulation.kernel`) batches its
accounting, short-circuits logging, and detects drain with a counter —
none of which may change a single observable result.  These tests pin
the kernel to ``_seed_engine.py``, a verbatim snapshot of the
pre-refactor engine loops, across a matrix of (switch model x speedup x
traffic/value model x record on/off), plus the streaming entry point's
drain-termination edge cases.  The seed engine's end-of-slot occupancy
totals are compared with an every-slot metrics recorder's series, the
kernel's one per-slot record.
"""

import pytest

import _seed_engine
from repro.core.cgu import CGUPolicy
from repro.core.cpg import CPGPolicy
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.obs import InMemoryRecorder
from repro.scheduling.fifo import FifoCIOQPolicy
from repro.simulation.engine import drain_bound, run_cioq, run_cioq_streaming, run_crossbar
from repro.switch.config import SwitchConfig
from repro.traffic.adversarial import burst_reject_gadget
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.bursty import BurstyTraffic
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.markov import MarkovModulatedTraffic
from repro.traffic.paretoburst import ParetoBurstTraffic
from repro.traffic.replay import TraceReplayTraffic
from repro.traffic.values import pareto_values, two_value, uniform_values, unit_values

#: Every observable field of a SimulationResult, logs included.
RESULT_FIELDS = [
    "policy_name",
    "config",
    "n_arrival_slots",
    "horizon",
    "benefit",
    "n_sent",
    "n_arrived",
    "value_arrived",
    "n_accepted",
    "value_accepted",
    "n_rejected",
    "value_rejected",
    "n_preempted_voq",
    "value_preempted_voq",
    "n_preempted_cross",
    "value_preempted_cross",
    "n_preempted_out",
    "value_preempted_out",
    "n_residual",
    "value_residual",
    "sent_per_output",
    "value_per_output",
    "schedule_log",
    "transmit_log",
]


def occupancy(rec):
    """An every-slot recorder's ``(slot, voq, cross, out)`` rows, the
    seed engine's occupancy trace schema."""
    return [(slot, voq, cross, out)
            for slot, _lane, voq, cross, out, *_ in rec.series]


def assert_identical(fast, seed, rec=None):
    for name in RESULT_FIELDS:
        assert getattr(fast, name) == getattr(seed, name), (
            f"kernel diverges from seed engine on {name}: "
            f"{getattr(fast, name)!r} != {getattr(seed, name)!r}"
        )
    if rec is not None:
        assert occupancy(rec) == seed.occupancy, (
            "kernel's occupancy series diverges from the seed engine's")


TRAFFICS = [
    ("bernoulli-unit", lambda n: BernoulliTraffic(
        n, n, load=1.3, value_model=unit_values())),
    ("hotspot-uniform", lambda n: HotspotTraffic(
        n, n, load=1.4, hot_fraction=0.6, value_model=uniform_values(1, 50))),
    ("bursty-twovalue", lambda n: BurstyTraffic(
        n, n, burst_load=2.2, value_model=two_value(10, 0.3))),
    # The PR 2 traffic models: the kernel must match the seed engine on
    # every regime the scenario catalog can express, not just the
    # original three.
    ("markov-uniform", lambda n: MarkovModulatedTraffic(
        n, n, loads=(0.2, 1.0, 2.8), value_model=uniform_values(1, 20))),
    ("paretoburst-exp", lambda n: ParetoBurstTraffic(
        n, n, shape=1.5, p_start=0.3, burst_load=1.8,
        value_model=uniform_values(1, 10))),
    # Replay tiles a recorded adversarial gadget (carries its own unit
    # values) across the horizon; generation is seed-independent.
    ("replay-gadget", lambda n: TraceReplayTraffic(
        burst_reject_gadget(n=n, b_in=2, n_rounds=3), repeat=True)),
]

CIOQ_POLICIES = [("gm", GMPolicy), ("pg", PGPolicy), ("fifo", FifoCIOQPolicy)]
CROSSBAR_POLICIES = [("cgu", CGUPolicy), ("cpg", CPGPolicy)]


@pytest.mark.parametrize("traffic_name,make", TRAFFICS, ids=lambda x: x if isinstance(x, str) else "")
@pytest.mark.parametrize("speedup", [1, 2])
@pytest.mark.parametrize("record", [False, True], ids=["norecord", "record"])
@pytest.mark.parametrize("policy_name,policy_cls", CIOQ_POLICIES,
                         ids=lambda x: x if isinstance(x, str) else "")
def test_cioq_matrix(traffic_name, make, speedup, record, policy_name, policy_cls):
    config = SwitchConfig.square(4, speedup=speedup, b_in=2, b_out=2, b_cross=1)
    trace = make(4).generate(25, seed=13)
    rec = InMemoryRecorder(every_k=1)
    fast = run_cioq(policy_cls(), config, trace, record=record, metrics=rec)
    seed = _seed_engine.run_cioq(policy_cls(), config, trace, record=record,
                                 trace_occupancy=True)
    assert_identical(fast, seed, rec)


@pytest.mark.parametrize("traffic_name,make", TRAFFICS, ids=lambda x: x if isinstance(x, str) else "")
@pytest.mark.parametrize("speedup", [1, 2])
@pytest.mark.parametrize("record", [False, True], ids=["norecord", "record"])
@pytest.mark.parametrize("policy_name,policy_cls", CROSSBAR_POLICIES,
                         ids=lambda x: x if isinstance(x, str) else "")
def test_crossbar_matrix(traffic_name, make, speedup, record, policy_name,
                         policy_cls):
    config = SwitchConfig.square(4, speedup=speedup, b_in=2, b_out=2, b_cross=1)
    trace = make(4).generate(25, seed=29)
    rec = InMemoryRecorder(every_k=1)
    fast = run_crossbar(policy_cls(), config, trace, record=record,
                        metrics=rec)
    seed = _seed_engine.run_crossbar(policy_cls(), config, trace,
                                     record=record, trace_occupancy=True)
    assert_identical(fast, seed, rec)


def test_cioq_occupancy_schema_has_zero_cross_column():
    """CIOQ occupancy rows carry a cross_total of 0 in every slot."""
    config = SwitchConfig.square(3, b_in=2, b_out=2)
    trace = BernoulliTraffic(3, 3, load=1.5).generate(20, seed=3)
    rec = InMemoryRecorder(every_k=1)
    run_cioq(GMPolicy(), config, trace, metrics=rec)
    rows = occupancy(rec)
    assert rows
    assert all(row[2] == 0 for row in rows)


def test_crossbar_occupancy_counts_crosspoints():
    config = SwitchConfig.square(3, b_in=2, b_out=2, b_cross=2)
    trace = BernoulliTraffic(3, 3, load=1.8).generate(20, seed=3)
    rec = InMemoryRecorder(every_k=1)
    run_crossbar(CGUPolicy(), config, trace, metrics=rec)
    assert any(row[2] > 0 for row in occupancy(rec))


def test_max_extra_slots_zero_identical(small_config):
    """Truncated horizons (stranded residuals) match the seed engine."""
    trace = BernoulliTraffic(3, 3, load=2.0).generate(10, seed=1)
    fast = run_cioq(GMPolicy(), small_config, trace, max_extra_slots=0)
    seed = _seed_engine.run_cioq(GMPolicy(), small_config, trace,
                                 max_extra_slots=0)
    assert fast.n_residual > 0
    assert_identical(fast, seed)


def test_check_invariants_path_identical(small_config):
    trace = BernoulliTraffic(3, 3, load=1.2,
                             value_model=pareto_values(1.5)).generate(15, seed=5)
    fast = run_cioq(PGPolicy(), small_config, trace, check_invariants=True)
    seed = _seed_engine.run_cioq(PGPolicy(), small_config, trace,
                                 check_invariants=True)
    assert_identical(fast, seed)


class TestStreamingEquivalence:
    # The seed streaming loop never populated schedule_log (even with
    # record=True); the unified kernel records it like the batch entry
    # points do.  Everything else must match exactly.
    STREAMING_FIELDS = [f for f in RESULT_FIELDS if f != "schedule_log"]

    def _compare(self, source, n_slots, config, policy_cls=GMPolicy,
                 record=False):
        fast = run_cioq_streaming(policy_cls(), config, source, n_slots,
                                  record=record)
        seed = _seed_engine.run_cioq_streaming(policy_cls(), config, source,
                                               n_slots, record=record)
        for name in self.STREAMING_FIELDS:
            assert getattr(fast, name) == getattr(seed, name), (
                f"kernel diverges from seed engine on {name}"
            )
        if record:
            # Streaming now records transfers too: every sent packet
            # must appear in the schedule log.
            transferred = {ev.pid for ev in fast.schedule_log}
            assert {pid for _, _, pid in fast.transmit_log} <= transferred
        return fast

    def test_adaptive_source(self, small_config):
        """Adversary that targets the currently shortest VOQ row."""

        def source(slot, switch):
            lengths = [sum(len(q) for q in row) for row in switch.voq]
            i = lengths.index(min(lengths))
            return [(i, slot % 3, 1.0 + slot), (i, (slot + 1) % 3, 2.0)]

        self._compare(source, 12, small_config, policy_cls=PGPolicy)

    def test_empty_source_terminates_immediately(self, small_config):
        res = self._compare(lambda t, sw: [], 8, small_config)
        assert res.n_arrived == 0
        assert res.benefit == 0.0

    def test_burst_then_silence_drains_fully(self, small_config):
        """A slot-0 burst must drain during the silent tail, not linger
        to the horizon."""

        def source(slot, switch):
            if slot == 0:
                return [(i, j, 1.0) for i in range(3) for j in range(3)]
            return []

        res = self._compare(source, 6, small_config)
        assert res.n_residual == 0
        res.check_conservation()

    def test_arrivals_in_final_slot_still_delivered(self, small_config):
        """Packets arriving in the last arrival slot drain afterwards."""

        def source(slot, switch):
            if slot == 5:  # n_slots - 1
                return [(0, 0, 5.0), (1, 1, 7.0)]
            return []

        res = self._compare(source, 6, small_config)
        assert res.n_sent == 2
        assert res.benefit == 12.0

    def test_sustained_overload_hits_drain_bound_cap(self):
        """A source that always overloads leaves residuals only past the
        drain-bound horizon, never before."""
        config = SwitchConfig.square(2, b_in=1, b_out=1)

        def source(slot, switch):
            return [(i, j, 1.0) for i in range(2) for j in range(2)]

        res = self._compare(source, 10, config)
        assert res.horizon == 10 + drain_bound(config)
        assert res.n_residual == 0  # work-conserving GM drains post-arrivals
        res.check_conservation()

    def test_record_logs_identical(self, small_config):
        def source(slot, switch):
            return [(slot % 3, (slot * 2) % 3, float(slot + 1))]

        self._compare(source, 9, small_config, policy_cls=PGPolicy,
                      record=True)
