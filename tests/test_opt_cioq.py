"""Tests for the exact CIOQ offline optimum (time-expanded MILP)."""

from collections import defaultdict

import pytest

from repro.offline.bruteforce import bruteforce_cioq_opt_unit
from repro.offline.opt import cioq_opt
from repro.offline.timegraph import CIOQOptModel, default_horizon
from repro.simulation.engine import run_cioq
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.trace import Trace
from repro.traffic.values import uniform_values


def trace_of(spec, n=2):
    """spec: (value, arrival, src, dst) tuples."""
    return Trace(
        [Packet(i, *s) for i, s in enumerate(spec)], n, n
    )


class TestHandInstances:
    def test_empty_trace(self, tiny_config):
        assert cioq_opt(Trace([], 2, 2), tiny_config).benefit == 0.0

    def test_single_packet(self, tiny_config):
        t = trace_of([(1.0, 0, 0, 1)])
        res = cioq_opt(t, tiny_config)
        assert res.benefit == 1.0
        assert res.n_delivered == 1

    def test_two_packets_same_voq_b1_one_slot(self, tiny_config):
        """Two simultaneous arrivals into a capacity-1 VOQ: one is lost."""
        t = trace_of([(1.0, 0, 0, 0), (1.0, 0, 0, 0)])
        res = cioq_opt(t, tiny_config)
        assert res.n_delivered == 1

    def test_two_packets_different_inputs_same_output(self, tiny_config):
        """Different VOQs, same output: both deliverable over two slots."""
        t = trace_of([(1.0, 0, 0, 0), (1.0, 0, 1, 0)])
        res = cioq_opt(t, tiny_config)
        assert res.n_delivered == 2

    def test_value_choice_under_capacity(self, tiny_config):
        """OPT keeps the valuable packet when both cannot survive."""
        t = trace_of([(1.0, 0, 0, 0), (9.0, 0, 0, 0)])
        res = cioq_opt(t, tiny_config)
        assert res.benefit == 9.0

    def test_matching_constraint_binds(self):
        """Two inputs, one output, one slot of arrivals, speedup 1:
        per cycle only one packet crosses; with a long horizon both
        still make it (sequential cycles)."""
        config = SwitchConfig.square(2, speedup=1, b_in=1, b_out=1)
        t = trace_of([(1.0, 0, 0, 0), (1.0, 0, 1, 0)])
        res = cioq_opt(t, config)
        assert res.n_delivered == 2

    def test_output_transmission_rate_binds(self):
        """N packets to one output need N slots to transmit; horizon
        cut short strands them."""
        config = SwitchConfig.square(2, speedup=2, b_in=2, b_out=2)
        t = trace_of([(1.0, 0, 0, 0), (1.0, 0, 0, 0), (1.0, 0, 1, 0),
                      (1.0, 0, 1, 0)])
        full = cioq_opt(t, config)
        assert full.n_delivered == 4
        cut = cioq_opt(t, config, horizon=2)
        assert cut.n_delivered == 2  # only two transmission slots exist

    def test_speedup_relieves_fabric_contention(self):
        # 2 inputs x 2 packets each, all to output 0, arriving each slot:
        # speedup 1 moves 1/cycle; speedup 2 moves 2 (different inputs).
        config1 = SwitchConfig.square(2, speedup=1, b_in=1, b_out=8)
        config2 = SwitchConfig.square(2, speedup=2, b_in=1, b_out=8)
        spec = []
        for t in range(4):
            spec.append((1.0, t, 0, 0))
            spec.append((1.0, t, 1, 0))
        t = trace_of(spec)
        r1 = cioq_opt(t, config1)
        r2 = cioq_opt(t, config2)
        assert r2.n_delivered >= r1.n_delivered
        assert r2.n_delivered == 8


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_unit_random_instances(self, seed, tiny_config):
        trace = BernoulliTraffic(2, 2, load=1.2).generate(3, seed=seed)
        bf = bruteforce_cioq_opt_unit(trace, tiny_config)
        milp = cioq_opt(trace, tiny_config)
        assert milp.n_delivered == bf

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_bigger_buffers(self, seed):
        config = SwitchConfig.square(2, speedup=1, b_in=2, b_out=1)
        trace = BernoulliTraffic(2, 2, load=1.5).generate(3, seed=seed)
        bf = bruteforce_cioq_opt_unit(trace, config)
        milp = cioq_opt(trace, config)
        assert milp.n_delivered == bf

    @pytest.mark.parametrize("seed", range(3))
    def test_unit_speedup_two(self, seed):
        config = SwitchConfig.square(2, speedup=2, b_in=1, b_out=1)
        trace = BernoulliTraffic(2, 2, load=1.5).generate(3, seed=seed)
        bf = bruteforce_cioq_opt_unit(trace, config)
        milp = cioq_opt(trace, config)
        assert milp.n_delivered == bf


class TestStructuralProperties:
    def test_opt_dominates_every_online_policy(self, small_config):
        trace = BernoulliTraffic(
            3, 3, load=1.3, value_model=uniform_values(1, 20)
        ).generate(15, seed=17)
        opt = cioq_opt(trace, small_config)
        for policy in (GMPolicy(), PGPolicy()):
            onl = run_cioq(policy, small_config, trace)
            assert onl.benefit <= opt.benefit + 1e-6

    def test_opt_monotone_in_buffers(self):
        trace = BernoulliTraffic(3, 3, load=1.5).generate(10, seed=5)
        small = SwitchConfig.square(3, b_in=1, b_out=1)
        big = SwitchConfig.square(3, b_in=3, b_out=3)
        assert (
            cioq_opt(trace, small).benefit <= cioq_opt(trace, big).benefit + 1e-9
        )

    def test_opt_monotone_in_speedup(self):
        trace = BernoulliTraffic(3, 3, load=1.5).generate(10, seed=5)
        s1 = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2)
        s2 = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2)
        assert cioq_opt(trace, s1).benefit <= cioq_opt(trace, s2).benefit + 1e-9

    def test_horizon_validation(self, tiny_config):
        t = trace_of([(1.0, 5, 0, 0)])
        with pytest.raises(ValueError, match="horizon"):
            CIOQOptModel(t, tiny_config, horizon=5)

    def test_default_horizon_covers_drain(self, tiny_config):
        t = trace_of([(1.0, 0, 0, 0)])
        assert default_horizon(t, tiny_config) > 1

    def test_schedule_extraction_consistent(self, small_config):
        trace = BernoulliTraffic(3, 3, load=1.0).generate(8, seed=3)
        res = cioq_opt(trace, small_config, extract_schedule=True)
        assert len(res.departures) == res.n_delivered
        assert len(res.transmissions) == res.n_delivered
        for t, s, i, j in res.departures:
            assert 0 <= i < 3 and 0 <= j < 3
            assert 0 <= s < small_config.speedup


def assert_in_order(later, earlier):
    """Per key, as many ``later`` as ``earlier`` events, and the k-th
    ``later`` one no earlier than the k-th ``earlier`` one."""
    assert set(later) == set(earlier)
    for key, times in earlier.items():
        assert len(later[key]) == len(times)
        assert all(b >= a for b, a in zip(sorted(later[key]), sorted(times)))


def assert_schedule_flows(trace, res, speedup):
    """The extracted schedule routes exactly the accepted packets, in
    order, through per-cycle matchings."""
    by_pid = {p.pid: p for p in trace.packets}
    accepted = [by_pid[pid] for pid in res.accepted_pids]
    assert res.benefit == pytest.approx(sum(p.value for p in accepted))
    assert len(res.departures) == len(res.transmissions) == res.n_delivered
    arrivals, departs, entries, sends, cycles = (
        defaultdict(list) for _ in range(5))
    for p in accepted:
        arrivals[(p.src, p.dst)].append(p.arrival)
    for t, s, i, j in res.departures:
        assert 0 <= s < speedup
        departs[(i, j)].append(t)
        entries[j].append(t)
        cycles[(t, s)].append((i, j))
    for t, j in res.transmissions:
        sends[j].append(t)
    # Per VOQ, the k-th departure is no earlier than the k-th accepted
    # arrival; per output, the k-th transmission no earlier than the
    # k-th entry.
    assert_in_order(departs, arrivals)
    assert_in_order(sends, entries)
    # Per cycle, the departures form a matching.
    for moves in cycles.values():
        assert len({i for i, _ in moves}) == len(moves)
        assert len({j for _, j in moves}) == len(moves)


class TestScheduleFlows:
    """Flow feasibility of the schedule ``extract_schedule`` returns."""

    @pytest.mark.parametrize("seed", range(5))
    def test_bernoulli(self, seed, small_config):
        trace = BernoulliTraffic(3, 3, load=1.2).generate(10, seed=seed)
        res = cioq_opt(trace, small_config, extract_schedule=True)
        assert res.n_delivered > 0
        assert_schedule_flows(trace, res, small_config.speedup)

    def test_empty_trace(self, tiny_config):
        trace = Trace([], 2, 2)
        res = cioq_opt(trace, tiny_config, extract_schedule=True)
        assert res.departures == [] and res.transmissions == []
        assert_schedule_flows(trace, res, tiny_config.speedup)

    def test_single_packet(self, tiny_config):
        trace = trace_of([(5.0, 0, 0, 1)])
        res = cioq_opt(trace, tiny_config, extract_schedule=True)
        assert res.accepted_pids == [0]
        assert_schedule_flows(trace, res, tiny_config.speedup)

    def test_all_drops_voq(self, tiny_config):
        """Five same-slot arrivals into one capacity-1 VOQ: exactly one
        survives, and its route is still consistent."""
        trace = trace_of([(1.0, 0, 0, 0)] * 5)
        res = cioq_opt(trace, tiny_config, extract_schedule=True)
        assert res.n_delivered == 1
        assert_schedule_flows(trace, res, tiny_config.speedup)

    def test_one_slot_burst(self, tiny_config):
        """Two packets per VOQ in one slot: drops occur, and the
        departures still form per-cycle matchings."""
        trace = trace_of([(1.0, 0, i, j) for i in range(2)
                          for j in range(2) for _ in range(2)])
        res = cioq_opt(trace, tiny_config, extract_schedule=True)
        assert 0 < res.n_delivered < len(trace.packets)
        assert_schedule_flows(trace, res, tiny_config.speedup)


class TestBruteForceEdgeCases:
    """Degenerate inputs to the exhaustive oracle: empty trace, a single
    arrival slot, an all-drops burst, and the validation guards."""

    def test_empty_trace(self, tiny_config):
        assert bruteforce_cioq_opt_unit(Trace([], 2, 2), tiny_config) == 0

    def test_single_slot_single_packet(self, tiny_config):
        t = trace_of([(1.0, 0, 0, 1)])
        assert bruteforce_cioq_opt_unit(t, tiny_config) == 1

    def test_all_drops_window(self, tiny_config):
        """A burst of 6 same-slot arrivals into one capacity-1 VOQ:
        all but one drop, and the MILP agrees with the oracle."""
        t = trace_of([(1.0, 0, 0, 0)] * 6)
        bf = bruteforce_cioq_opt_unit(t, tiny_config)
        assert bf == 1
        assert cioq_opt(t, tiny_config).n_delivered == bf

    def test_single_slot_full_fanout(self, tiny_config):
        """One packet per VOQ in one slot: all four deliverable."""
        t = trace_of([(1.0, 0, i, j) for i in range(2) for j in range(2)])
        bf = bruteforce_cioq_opt_unit(t, tiny_config)
        assert bf == 4
        assert cioq_opt(t, tiny_config).n_delivered == bf

    def test_rejects_weighted_trace(self, tiny_config):
        t = trace_of([(2.5, 0, 0, 1)])
        with pytest.raises(ValueError, match="unit-value"):
            bruteforce_cioq_opt_unit(t, tiny_config)

    def test_rejects_large_switch(self):
        config = SwitchConfig.square(5, speedup=1, b_in=1, b_out=1)
        t = Trace([Packet(0, 1.0, 0, 0, 0)], 5, 5)
        with pytest.raises(ValueError, match="4x4"):
            bruteforce_cioq_opt_unit(t, config)
