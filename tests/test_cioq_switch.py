"""Unit tests for the CIOQ switch state machine."""

import pytest

from repro.switch.cioq import CIOQSwitch, ScheduleError, Transfer
from repro.switch.cioq import greedy_head_transmissions
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet


@pytest.fixture
def switch():
    return CIOQSwitch(SwitchConfig.square(3, b_in=2, b_out=2))


def pk(pid, src, dst, value=1.0):
    return Packet(pid, value, 0, src, dst)


class TestStructure:
    def test_queue_grid_dimensions(self, switch):
        assert len(switch.voq) == 3
        assert all(len(row) == 3 for row in switch.voq)
        assert len(switch.out) == 3

    def test_asymmetric_dimensions(self):
        s = CIOQSwitch(SwitchConfig(n_in=2, n_out=4))
        assert len(s.voq) == 2
        assert len(s.voq[0]) == 4
        assert len(s.out) == 4

    def test_initially_drained(self, switch):
        assert switch.is_drained()
        assert switch.buffered_packets() == []

    def test_enqueue_and_lengths(self, switch):
        switch.enqueue_arrival(pk(0, 1, 2))
        assert switch.voq_lengths()[1][2] == 1
        assert not switch.is_drained()
        assert len(switch.buffered_packets()) == 1


class TestTransfers:
    def test_valid_transfer_moves_packet(self, switch):
        p = pk(0, 0, 1)
        switch.enqueue_arrival(p)
        switch.apply_transfers([Transfer(0, 1, p)])
        assert switch.voq_lengths()[0][1] == 0
        assert switch.out_lengths()[1] == 1

    def test_rejects_duplicate_input_port(self, switch):
        a, b = pk(0, 0, 0), pk(1, 0, 1)
        switch.enqueue_arrival(a)
        switch.enqueue_arrival(b)
        with pytest.raises(ScheduleError, match="input port"):
            switch.apply_transfers([Transfer(0, 0, a), Transfer(0, 1, b)])

    def test_rejects_duplicate_output_port(self, switch):
        a, b = pk(0, 0, 1), pk(1, 2, 1)
        switch.enqueue_arrival(a)
        switch.enqueue_arrival(b)
        with pytest.raises(ScheduleError, match="output port"):
            switch.apply_transfers([Transfer(0, 1, a), Transfer(2, 1, b)])

    def test_rejects_packet_not_in_voq(self, switch):
        with pytest.raises(ScheduleError, match="not in VOQ"):
            switch.apply_transfers([Transfer(0, 1, pk(0, 0, 1))])

    def test_rejects_transfer_into_full_output_without_preempt(self, switch):
        for pid in range(2):
            switch.enqueue_arrival(pk(pid, 0, 1))
        p1 = switch.voq[0][1].head()
        switch.apply_transfers([Transfer(0, 1, p1)])
        p2 = switch.voq[0][1].head()
        switch.apply_transfers([Transfer(0, 1, p2)])
        switch.enqueue_arrival(pk(2, 0, 1))
        p3 = switch.voq[0][1].head()
        with pytest.raises(ScheduleError, match="full"):
            switch.apply_transfers([Transfer(0, 1, p3)])

    def test_transfer_with_preemption(self):
        switch = CIOQSwitch(SwitchConfig.square(2, b_in=2, b_out=1))
        cheap = pk(0, 0, 0, value=1.0)
        rich = pk(1, 0, 0, value=9.0)
        switch.enqueue_arrival(cheap)
        switch.apply_transfers([Transfer(0, 0, cheap)])
        switch.enqueue_arrival(rich)
        switch.apply_transfers([Transfer(0, 0, rich, preempt=cheap)])
        assert switch.out_lengths()[0] == 1
        assert switch.out[0].head().pid == 1

    def test_preemption_victim_must_be_present(self, switch):
        p = pk(0, 0, 1)
        switch.enqueue_arrival(p)
        ghost = pk(9, 0, 1)
        with pytest.raises(ScheduleError, match="victim"):
            switch.apply_transfers([Transfer(0, 1, p, preempt=ghost)])

    def test_out_of_range_ports(self, switch):
        p = pk(0, 0, 1)
        switch.enqueue_arrival(p)
        with pytest.raises(ScheduleError):
            switch.apply_transfers([Transfer(5, 1, p)])

    def test_empty_transfer_list_is_noop(self, switch):
        switch.apply_transfers([])
        assert switch.is_drained()


class TestTransmission:
    def test_transmit_removes_and_returns(self, switch):
        p = pk(0, 0, 1)
        switch.enqueue_arrival(p)
        switch.apply_transfers([Transfer(0, 1, p)])
        sent = switch.transmit({1: p})
        assert sent == [p]
        assert switch.is_drained()

    def test_transmit_missing_packet_raises(self, switch):
        with pytest.raises(ScheduleError):
            switch.transmit({0: pk(0, 0, 0)})

    def test_transmit_bad_port_raises(self, switch):
        with pytest.raises(ScheduleError):
            switch.transmit({7: pk(0, 0, 0)})

    def test_greedy_head_transmissions_selects_heads(self, switch):
        a = pk(0, 0, 1, value=2.0)
        b = pk(1, 1, 1, value=5.0)
        switch.enqueue_arrival(a)
        switch.enqueue_arrival(b)
        switch.apply_transfers([Transfer(0, 1, a)])
        switch.apply_transfers([Transfer(1, 1, b)])
        sel = greedy_head_transmissions(switch)
        assert set(sel) == {1}
        assert sel[1].pid == 1  # the more valuable packet

    def test_greedy_head_skips_empty_queues(self, switch):
        assert greedy_head_transmissions(switch) == {}


class TestArrivalAdmission:
    def test_preempt_removes_the_named_victim(self):
        switch = CIOQSwitch(SwitchConfig.square(2, b_in=2))
        cheap, mid, rich = (pk(0, 0, 1, 1.0), pk(1, 0, 1, 2.0),
                            pk(2, 0, 1, 9.0))
        switch.enqueue_arrival(cheap)
        switch.enqueue_arrival(mid)
        switch.enqueue_arrival(rich, preempt=cheap)
        assert switch.voq[0][1].packets() == [rich, mid]
        switch.check_invariants()

    def test_victim_must_be_in_the_voq(self, switch):
        switch.enqueue_arrival(pk(0, 0, 1))
        with pytest.raises(ScheduleError, match="not in VOQ"):
            switch.enqueue_arrival(pk(1, 0, 1), preempt=pk(9, 0, 1))

    def test_full_voq_needs_a_victim(self, switch):
        switch.enqueue_arrival(pk(0, 0, 1))
        switch.enqueue_arrival(pk(1, 0, 1))
        with pytest.raises(ScheduleError, match="full VOQ"):
            switch.enqueue_arrival(pk(2, 0, 1))


class TestResidents:
    def test_buffered_packets_order_and_occupancy(self, switch):
        """VOQ grid row by row, then output queues; each queue head to
        tail.  value_residual is summed in this order."""
        moved = pk(0, 2, 1, 4.0)
        low, high = pk(1, 0, 2, 1.0), pk(2, 0, 2, 3.0)
        other = pk(3, 1, 0, 2.0)
        for p in (moved, low, high, other):
            switch.enqueue_arrival(p)
        switch.apply_transfers([Transfer(2, 1, moved)])
        assert switch.buffered_packets() == [high, low, other, moved]
        assert switch.occupancy_totals() == (3, 0, 1)
