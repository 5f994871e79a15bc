"""Tests for the baseline scheduling policies."""

import pytest

from repro.core import CGUPolicy, CPGPolicy, GMPolicy, PGPolicy
from repro.scheduling.base import preemptive_arrival, tail_drop_arrival
from repro.scheduling.baselines import (
    CrossbarGreedyWeightedPolicy,
    MaxMatchPolicy,
    MaxWeightMatchPolicy,
    RandomMatchPolicy,
    RoundRobinPolicy,
)
from repro.scheduling.fifo import FifoCIOQPolicy, FifoCrossbarPolicy
from repro.simulation.engine import run_cioq, run_crossbar
from repro.switch.cioq import CIOQSwitch
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.values import uniform_values


def pk(pid, src, dst, value=1.0):
    return Packet(pid, value, 0, src, dst)


@pytest.mark.parametrize("policy_cls, rule", [
    (GMPolicy, tail_drop_arrival),
    (CGUPolicy, tail_drop_arrival),
    (MaxMatchPolicy, tail_drop_arrival),
    (RandomMatchPolicy, tail_drop_arrival),
    (RoundRobinPolicy, tail_drop_arrival),
    (CrossbarGreedyWeightedPolicy, tail_drop_arrival),
    (PGPolicy, preemptive_arrival),
    (CPGPolicy, preemptive_arrival),
    (MaxWeightMatchPolicy, preemptive_arrival),
    (FifoCIOQPolicy, preemptive_arrival),
    (FifoCrossbarPolicy, preemptive_arrival),
])
def test_on_arrival_is_the_shared_rule(policy_cls, rule):
    """Each policy's arrival phase is one of the paper's two rules,
    written once in repro.scheduling.base."""
    assert policy_cls.on_arrival is rule


class TestMaxMatch:
    def test_finds_augmenting_path_gm_might_miss(self):
        """On the 2x2 'crossing' pattern a bad greedy order yields one
        transfer; maximum matching always yields two."""
        config = SwitchConfig.square(2, b_in=2, b_out=2)
        s = CIOQSwitch(config)
        s.enqueue_arrival(pk(0, 0, 0))
        s.enqueue_arrival(pk(1, 0, 1))
        s.enqueue_arrival(pk(2, 1, 0))
        transfers = MaxMatchPolicy().schedule(s, 0, 0)
        assert len(transfers) == 2

    def test_conservation_and_no_preemption(self):
        config = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2)
        trace = BernoulliTraffic(3, 3, load=1.3).generate(25, seed=4)
        res = run_cioq(MaxMatchPolicy(), config, trace)
        res.check_conservation()
        assert res.n_preempted == 0

    def test_at_least_gm_per_cycle_size(self):
        """Maximum matchings are never smaller than greedy ones, cycle
        for cycle (compared on identical switch states)."""
        config = SwitchConfig.square(4, b_in=2, b_out=2)
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(10):
            s1 = CIOQSwitch(config)
            s2 = CIOQSwitch(config)
            pid = 0
            for i in range(4):
                for j in range(4):
                    if rng.random() < 0.5:
                        s1.enqueue_arrival(pk(pid, i, j))
                        s2.enqueue_arrival(pk(pid + 100, i, j))
                        pid += 1
            gm_size = len(GMPolicy().schedule(s1, 0, 0))
            mm_size = len(MaxMatchPolicy().schedule(s2, 0, 0))
            assert mm_size >= gm_size


class TestMaxWeightMatch:
    def test_beats_greedy_weight_per_cycle(self):
        config = SwitchConfig.square(2, b_in=2, b_out=2)
        s = CIOQSwitch(config)
        # Greedy takes (0,0,w=10) blocking the pair (0,1,9)+(1,0,9)=18.
        s.enqueue_arrival(pk(0, 0, 0, 10.0))
        s.enqueue_arrival(pk(1, 0, 1, 9.0))
        s.enqueue_arrival(pk(2, 1, 0, 9.0))
        transfers = MaxWeightMatchPolicy().schedule(s, 0, 0)
        total = sum(t.packet.value for t in transfers)
        assert total == 18.0

    def test_respects_beta_eligibility(self):
        config = SwitchConfig.square(2, b_in=2, b_out=1)
        s = CIOQSwitch(config)
        policy = MaxWeightMatchPolicy(beta=2.0)
        s.enqueue_arrival(pk(0, 0, 0, 3.0))
        s.apply_transfers(policy.schedule(s, 0, 0))
        s.enqueue_arrival(pk(1, 0, 0, 5.0))
        assert policy.schedule(s, 0, 1) == []  # 5 <= 2*3

    def test_conservation_weighted(self):
        config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2)
        trace = BernoulliTraffic(
            3, 3, load=1.5, value_model=uniform_values(1, 50)
        ).generate(25, seed=8)
        res = run_cioq(MaxWeightMatchPolicy(), config, trace)
        res.check_conservation()


class TestRandomMatch:
    def test_reproducible_given_seed(self):
        config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2)
        trace = BernoulliTraffic(3, 3, load=1.2).generate(20, seed=6)
        r1 = run_cioq(RandomMatchPolicy(seed=5), config, trace)
        r2 = run_cioq(RandomMatchPolicy(seed=5), config, trace)
        assert r1.benefit == r2.benefit

    def test_conservation(self):
        config = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2)
        trace = BernoulliTraffic(3, 3, load=1.2).generate(20, seed=6)
        run_cioq(RandomMatchPolicy(), config, trace).check_conservation()


class TestRoundRobin:
    def test_pointer_rotation_shares_service(self):
        """Under symmetric permanent contention, both inputs get served."""
        config = SwitchConfig.square(2, b_in=4, b_out=4)
        s = CIOQSwitch(config)
        rr = RoundRobinPolicy()
        rr.reset(s)
        for pid in range(4):
            s.enqueue_arrival(pk(pid, pid % 2, 0))
        served = []
        for cycle in range(2):
            transfers = rr.schedule(s, 0, cycle)
            s.apply_transfers(transfers)
            served.extend(t.src for t in transfers)
        assert set(served) == {0, 1}

    def test_conservation(self):
        config = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2)
        trace = BernoulliTraffic(3, 3, load=1.3).generate(25, seed=2)
        run_cioq(RoundRobinPolicy(), config, trace).check_conservation()

    def test_schedules_are_matchings(self):
        config = SwitchConfig.square(4, b_in=2, b_out=2)
        s = CIOQSwitch(config)
        rr = RoundRobinPolicy()
        rr.reset(s)
        pid = 0
        for i in range(4):
            for j in range(4):
                s.enqueue_arrival(pk(pid, i, j))
                pid += 1
        transfers = rr.schedule(s, 0, 0)
        assert len({t.src for t in transfers}) == len(transfers)
        assert len({t.dst for t in transfers}) == len(transfers)


class TestCrossbarGreedyWeighted:
    def test_never_preempts(self):
        config = SwitchConfig.square(3, speedup=1, b_in=1, b_out=1, b_cross=1)
        trace = BernoulliTraffic(
            3, 3, load=2.0, value_model=uniform_values(1, 100)
        ).generate(25, seed=3)
        res = run_crossbar(CrossbarGreedyWeightedPolicy(), config, trace)
        res.check_conservation()
        assert res.n_preempted == 0

    def test_moves_heaviest_eligible(self):
        from repro.switch.crossbar import CrossbarSwitch

        config = SwitchConfig.square(2, b_in=2, b_out=2, b_cross=1)
        s = CrossbarSwitch(config)
        s.enqueue_arrival(pk(0, 0, 0, 1.0))
        s.enqueue_arrival(pk(1, 0, 1, 9.0))
        transfers = CrossbarGreedyWeightedPolicy().input_subphase(s, 0, 0)
        assert transfers[0].packet.value == 9.0
