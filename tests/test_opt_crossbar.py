"""Tests for the exact buffered-crossbar offline optimum."""

from collections import Counter, defaultdict

import pytest

from repro.core.cgu import CGUPolicy
from repro.core.cpg import CPGPolicy
from repro.offline.crossbar_timegraph import CrossbarOptModel
from repro.offline.opt import cioq_opt, crossbar_opt
from repro.simulation.engine import run_crossbar
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.trace import Trace
from repro.traffic.values import uniform_values


def trace_of(spec, n=2):
    return Trace([Packet(i, *s) for i, s in enumerate(spec)], n, n)


class TestHandInstances:
    def test_empty(self, tiny_config):
        assert crossbar_opt(Trace([], 2, 2), tiny_config).benefit == 0.0

    def test_single_packet_crosses_both_subphases(self, tiny_config):
        t = trace_of([(1.0, 0, 0, 1)])
        res = crossbar_opt(t, tiny_config)
        assert res.n_delivered == 1

    def test_input_port_constraint_binds(self):
        """Two VOQs at input 0: only one packet enters the fabric per
        cycle, but over two cycles (slots) both are deliverable to their
        distinct outputs."""
        config = SwitchConfig.square(2, speedup=1, b_in=1, b_out=1, b_cross=1)
        t = trace_of([(1.0, 0, 0, 0), (1.0, 0, 0, 1)])
        # b_in = 1: the second simultaneous arrival at input 0 cannot
        # even be buffered (two distinct VOQs -> both fit).
        res = crossbar_opt(t, config)
        assert res.n_delivered == 2

    def test_crosspoint_capacity_binds(self):
        """b_cross = 1 and a blocked output: the crosspoint holds only
        one in-flight packet per (i, j)."""
        config = SwitchConfig.square(2, speedup=4, b_in=1, b_out=1, b_cross=1)
        spec = [(1.0, 0, 0, 0), (1.0, 0, 1, 0)]
        t = trace_of(spec)
        res = crossbar_opt(t, config)
        assert res.n_delivered == 2

    def test_value_selection(self, tiny_config):
        t = trace_of([(1.0, 0, 0, 0), (9.0, 0, 0, 0)])
        res = crossbar_opt(t, tiny_config)
        assert res.benefit == 9.0

    def test_parallel_subphase_advantage(self):
        """In one cycle, input subphases act per input and output
        subphases per output: a full diagonal load crosses in a single
        slot."""
        config = SwitchConfig.square(3, speedup=1, b_in=1, b_out=1, b_cross=1)
        t = trace_of(
            [(1.0, 0, 0, 0), (1.0, 0, 1, 1), (1.0, 0, 2, 2)], n=3
        )
        res = crossbar_opt(t, config, horizon=2)
        assert res.n_delivered == 3


class TestStructuralProperties:
    def test_crossbar_opt_at_least_cioq_opt(self, small_config):
        """Crosspoint buffers only add capability: OPT_crossbar >=
        OPT_cioq on every instance (same other capacities)."""
        for seed in range(4):
            trace = BernoulliTraffic(3, 3, load=1.3).generate(8, seed=seed)
            cioq = cioq_opt(trace, small_config).benefit
            xbar = crossbar_opt(trace, small_config).benefit
            assert xbar >= cioq - 1e-6

    def test_opt_dominates_online(self, small_config):
        trace = BernoulliTraffic(
            3, 3, load=1.4, value_model=uniform_values(1, 30)
        ).generate(12, seed=23)
        opt = crossbar_opt(trace, small_config)
        for policy in (CGUPolicy(), CPGPolicy()):
            onl = run_crossbar(policy, small_config, trace)
            assert onl.benefit <= opt.benefit + 1e-6

    def test_monotone_in_crosspoint_capacity(self):
        trace = BernoulliTraffic(3, 3, load=1.5).generate(8, seed=2)
        small = SwitchConfig.square(3, b_in=2, b_out=2, b_cross=1)
        big = SwitchConfig.square(3, b_in=2, b_out=2, b_cross=3)
        assert (
            crossbar_opt(trace, small).benefit
            <= crossbar_opt(trace, big).benefit + 1e-9
        )

    def test_schedule_extraction(self, small_config):
        trace = BernoulliTraffic(3, 3, load=1.0).generate(6, seed=1)
        model = CrossbarOptModel(trace, small_config)
        res = model.solve(extract_schedule=True)
        assert len(model.y_events) == res.n_delivered
        assert len(model.z_events) == res.n_delivered
        assert len(res.transmissions) == res.n_delivered


class TestScheduleFlows:
    """Flow feasibility of the ``y_events`` / ``z_events`` a solve with
    ``extract_schedule=True`` hands to the shadow replays."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("config_name", ["small_config", "speedy_config"])
    def test_bernoulli(self, seed, config_name, request):
        config = request.getfixturevalue(config_name)
        trace = BernoulliTraffic(3, 3, load=1.4).generate(10, seed=seed)
        model = CrossbarOptModel(trace, config)
        res = model.solve(extract_schedule=True)
        assert res.departures == model.y_events
        assert len(model.z_events) == len(res.transmissions) \
            == res.n_delivered > 0
        ys, zs = defaultdict(list), defaultdict(list)
        for events, by_pair in ((model.y_events, ys), (model.z_events, zs)):
            for t, s, i, j in events:
                assert 0 <= s < config.speedup
                by_pair[(i, j)].append((t, s))
        # Per cycle: at most one y per input and one z per output.
        assert max(Counter((t, s, i) for t, s, i, _ in model.y_events)
                   .values()) == 1
        assert max(Counter((t, s, j) for t, s, _, j in model.z_events)
                   .values()) == 1
        # The k-th z of a pair is no earlier than its k-th y (the same
        # cycle is allowed).
        assert set(zs) == set(ys)
        for pair, cycles in ys.items():
            assert len(zs[pair]) == len(cycles)
            assert all(z >= y for z, y in zip(sorted(zs[pair]),
                                               sorted(cycles)))
        # Each output transmits at most once per slot.
        assert max(Counter(res.transmissions).values()) == 1
