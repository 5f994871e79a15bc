"""Unit tests for the Greedy Matching (GM) policy — Section 2.1."""

import pytest

from repro.core.gm import GMPolicy
from repro.simulation.engine import run_cioq
from repro.switch.cioq import CIOQSwitch
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.theory.invariants import CheckedCIOQPolicy
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.trace import Trace


def pk(pid, src, dst):
    return Packet(pid, 1.0, 0, src, dst)


@pytest.fixture
def switch():
    return CIOQSwitch(SwitchConfig.square(3, b_in=2, b_out=2))


class TestArrival:
    def test_accepts_when_space(self, switch):
        d = GMPolicy().on_arrival(switch, pk(0, 0, 0))
        assert d.accept and d.preempt is None

    def test_rejects_when_full(self, switch):
        switch.enqueue_arrival(pk(0, 0, 0))
        switch.enqueue_arrival(pk(1, 0, 0))
        d = GMPolicy().on_arrival(switch, pk(2, 0, 0))
        assert not d.accept

    def test_never_preempts(self, switch):
        switch.enqueue_arrival(pk(0, 0, 0))
        switch.enqueue_arrival(pk(1, 0, 0))
        d = GMPolicy().on_arrival(switch, pk(2, 0, 0))
        assert d.preempt is None


class TestScheduling:
    def test_transfers_from_nonempty_voqs(self, switch):
        switch.enqueue_arrival(pk(0, 0, 1))
        switch.enqueue_arrival(pk(1, 1, 2))
        transfers = GMPolicy().schedule(switch, 0, 0)
        assert {(t.src, t.dst) for t in transfers} == {(0, 1), (1, 2)}

    def test_matching_property(self, switch):
        # Two VOQs at the same input: only one may transfer.
        switch.enqueue_arrival(pk(0, 0, 0))
        switch.enqueue_arrival(pk(1, 0, 1))
        transfers = GMPolicy().schedule(switch, 0, 0)
        assert len(transfers) == 1

    def test_skips_full_outputs(self, switch):
        for pid in range(2):
            p = pk(pid, 0, 1)
            switch.enqueue_arrival(p)
        gm = GMPolicy()
        switch.apply_transfers(gm.schedule(switch, 0, 0))
        switch.enqueue_arrival(pk(2, 1, 1))
        switch.apply_transfers(gm.schedule(switch, 0, 1))
        # Output 1 now holds 2 packets (full): no further transfer to it.
        switch.enqueue_arrival(pk(3, 2, 1))
        transfers = gm.schedule(switch, 0, 2)
        assert all(t.dst != 1 for t in transfers)

    def test_empty_switch_schedules_nothing(self, switch):
        assert GMPolicy().schedule(switch, 0, 0) == []

    def test_rotation_changes_choices(self):
        """With rotation, the favoured input alternates across cycles."""
        config = SwitchConfig.square(2, b_in=2, b_out=1)
        s1 = CIOQSwitch(config)
        # Both inputs compete for output 0.
        s1.enqueue_arrival(pk(0, 0, 0))
        s1.enqueue_arrival(pk(1, 1, 0))
        gm = GMPolicy(rotate=True)
        first = gm.schedule(s1, 0, 0)[0].src
        second = gm.schedule(s1, 0, 1)[0].src
        assert {first, second} == {0, 1}

    def test_static_order_is_deterministic(self):
        config = SwitchConfig.square(2, b_in=2, b_out=1)
        s1 = CIOQSwitch(config)
        s1.enqueue_arrival(pk(0, 0, 0))
        s1.enqueue_arrival(pk(1, 1, 0))
        gm = GMPolicy(rotate=False)
        assert gm.schedule(s1, 0, 0)[0].src == 0
        assert gm.schedule(s1, 0, 1)[0].src == 0


class TestEndToEnd:
    def test_faithfulness_on_random_traffic(self):
        config = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2)
        trace = BernoulliTraffic(3, 3, load=1.2).generate(30, seed=5)
        res = run_cioq(CheckedCIOQPolicy(GMPolicy(), "gm"), config, trace,
                       check_invariants=True)
        res.check_conservation()
        assert res.n_preempted == 0  # GM never preempts

    def test_underload_delivers_everything(self):
        config = SwitchConfig.square(3, speedup=3, b_in=8, b_out=8)
        trace = BernoulliTraffic(3, 3, load=0.3).generate(30, seed=1)
        res = run_cioq(GMPolicy(), config, trace)
        assert res.n_sent == len(trace)

    def test_single_packet_delivered_same_slot(self):
        config = SwitchConfig.square(2, b_in=1, b_out=1)
        trace = Trace([Packet(0, 1.0, 0, 0, 1)], 2, 2)
        res = run_cioq(GMPolicy(), config, trace)
        assert res.n_sent == 1
        assert res.benefit == 1.0
