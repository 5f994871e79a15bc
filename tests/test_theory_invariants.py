"""Tests for the faithfulness checkers: they pass on correct policies
and catch deliberately broken ones."""

import pytest

from repro.core.cgu import CGUPolicy
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.scheduling.base import ArrivalDecision
from repro.simulation.engine import run_cioq, run_crossbar
from repro.switch.cioq import Transfer
from repro.switch.config import SwitchConfig
from repro.switch.crossbar import CrossbarSwitch
from repro.switch.packet import Packet
from repro.theory.invariants import (
    CheckedCGUPolicy,
    CheckedCIOQPolicy,
    FaithfulnessError,
    check_gm_cycle,
    check_matching_property,
    check_pg_cycle,
)
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.values import uniform_values


class TestMatchingProperty:
    def test_accepts_valid(self):
        t = [Transfer(0, 0, Packet(0, 1.0, 0, 0, 0)),
             Transfer(1, 1, Packet(1, 1.0, 0, 1, 1))]
        check_matching_property(t)

    def test_rejects_duplicate_ports(self):
        t = [Transfer(0, 0, Packet(0, 1.0, 0, 0, 0)),
             Transfer(0, 1, Packet(1, 1.0, 0, 0, 1))]
        with pytest.raises(FaithfulnessError):
            check_matching_property(t)


class TestGMChecks:
    def test_clean_gm_passes(self):
        config = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2)
        trace = BernoulliTraffic(3, 3, load=1.3).generate(25, seed=1)
        run_cioq(CheckedCIOQPolicy(GMPolicy(), "gm"), config, trace)

    def test_non_maximal_matching_caught(self):
        class LazyGM(GMPolicy):
            def schedule(self, switch, slot, cycle):
                return []  # never schedules: not maximal when edges exist

        config = SwitchConfig.square(2, b_in=2, b_out=2)
        trace = BernoulliTraffic(2, 2, load=1.0).generate(5, seed=0)
        with pytest.raises(FaithfulnessError, match="maximal"):
            run_cioq(CheckedCIOQPolicy(LazyGM(), "gm"), config, trace)

    def test_gm_wrongful_rejection_caught(self):
        class StingyGM(GMPolicy):
            def on_arrival(self, switch, packet):
                return ArrivalDecision.reject()

        config = SwitchConfig.square(2, b_in=2, b_out=2)
        trace = BernoulliTraffic(2, 2, load=1.0).generate(5, seed=0)
        with pytest.raises(FaithfulnessError, match="rejected"):
            run_cioq(CheckedCIOQPolicy(StingyGM(), "gm"), config, trace)

    def test_gm_preemption_caught(self):
        class PreemptingGM(GMPolicy):
            def on_arrival(self, switch, packet):
                q = switch.voq[packet.src][packet.dst]
                if q.is_full:
                    return ArrivalDecision.accepted(preempt=q.tail())
                return ArrivalDecision.accepted()

        config = SwitchConfig.square(2, b_in=1, b_out=1)
        trace = BernoulliTraffic(2, 2, load=2.5).generate(8, seed=0)
        with pytest.raises(FaithfulnessError, match="full VOQ"):
            run_cioq(CheckedCIOQPolicy(PreemptingGM(), "gm"), config, trace)


class TestPGChecks:
    def test_clean_pg_passes(self):
        config = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2)
        trace = BernoulliTraffic(
            3, 3, load=1.4, value_model=uniform_values(1, 50)
        ).generate(25, seed=2)
        beta = 2.0
        run_cioq(
            CheckedCIOQPolicy(PGPolicy(beta=beta), "pg", beta=beta),
            config,
            trace,
        )

    def test_wrong_packet_choice_caught(self):
        class TailPG(PGPolicy):
            """Transfers the least valuable packet instead of g_ij."""

            def schedule(self, switch, slot, cycle):
                transfers = super().schedule(switch, slot, cycle)
                out = []
                for tr in transfers:
                    tail = switch.voq[tr.src][tr.dst].tail()
                    out.append(Transfer(tr.src, tr.dst, tail, tr.preempt))
                return out

        config = SwitchConfig.square(2, b_in=2, b_out=2)
        trace = BernoulliTraffic(
            2, 2, load=2.0, value_model=uniform_values(1, 50)
        ).generate(8, seed=1)
        with pytest.raises(FaithfulnessError, match="g_ij"):
            run_cioq(CheckedCIOQPolicy(TailPG(beta=2.0), "pg", beta=2.0),
                     config, trace)

    def test_lighter_blocking_edge_caught(self):
        class AscendingPG(PGPolicy):
            """Scans edges in ascending weight (violates the greedy
            descending-weight rule)."""

            def schedule(self, switch, slot, cycle):
                from repro.scheduling.matching import (
                    greedy_maximal_matching_weighted,
                )

                edges = []
                heads = {}
                for i in range(switch.n_in):
                    for j in range(switch.n_out):
                        g = self._edge_eligible(switch, i, j)
                        if g is not None:
                            # Negate weights: sorting descending on the
                            # negated weight = ascending on the true one.
                            edges.append((i, j, -g.value))
                            heads[(i, j)] = g
                matching = greedy_maximal_matching_weighted(edges)
                out = []
                for i, j, _w in matching:
                    g = heads[(i, j)]
                    out_q = switch.out[j]
                    victim = out_q.tail() if out_q.is_full else None
                    out.append(Transfer(i, j, g, preempt=victim))
                return out

        config = SwitchConfig.square(3, b_in=2, b_out=1)
        trace = BernoulliTraffic(
            3, 3, load=2.0, value_model=uniform_values(1, 50)
        ).generate(10, seed=5)
        with pytest.raises(FaithfulnessError):
            run_cioq(
                CheckedCIOQPolicy(AscendingPG(beta=2.0), "pg", beta=2.0),
                config,
                trace,
            )


class TestCGUChecks:
    def test_clean_cgu_passes(self):
        config = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(3, 3, load=1.3).generate(20, seed=3)
        run_crossbar(CheckedCGUPolicy(CGUPolicy()), config, trace)

    def test_idle_input_caught(self):
        class IdleCGU(CGUPolicy):
            def input_subphase(self, switch, slot, cycle):
                return []

        config = SwitchConfig.square(2, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(2, 2, load=1.0).generate(5, seed=0)
        with pytest.raises(FaithfulnessError, match="idle"):
            run_crossbar(CheckedCGUPolicy(IdleCGU()), config, trace)

    def test_idle_output_caught(self):
        class IdleOutCGU(CGUPolicy):
            def output_subphase(self, switch, slot, cycle):
                return []

        config = SwitchConfig.square(2, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(2, 2, load=1.0).generate(5, seed=0)
        with pytest.raises(FaithfulnessError, match="idle"):
            run_crossbar(CheckedCGUPolicy(IdleOutCGU()), config, trace)

    def test_cgu_arrival_preemption_caught(self):
        """CGU's arrival rule is GM's: accepting with a victim named is
        unfaithful even when the VOQ has space."""
        class PreemptingCGU(CGUPolicy):
            def on_arrival(self, switch, packet):
                tail = switch.voq[packet.src][packet.dst].tail()
                return ArrivalDecision.accepted(preempt=tail)

        switch = CrossbarSwitch(SwitchConfig.square(2, b_in=2, b_cross=1))
        switch.enqueue_arrival(Packet(0, 1.0, 0, 0, 1))
        checked = CheckedCGUPolicy(PreemptingCGU())
        with pytest.raises(FaithfulnessError, match="CGU must never preempt"):
            checked.on_arrival(switch, Packet(1, 1.0, 0, 0, 1))
