"""Unit tests for the buffered crossbar switch state machine."""

import pytest

from repro.switch.cioq import (
    CIOQSwitch,
    ScheduleError,
    Transfer,
    greedy_head_transmissions,
)
from repro.switch.config import SwitchConfig
from repro.switch.crossbar import CrossbarSwitch
from repro.switch.packet import Packet


@pytest.fixture
def switch():
    return CrossbarSwitch(SwitchConfig.square(3, b_in=2, b_out=2, b_cross=1))


def pk(pid, src, dst, value=1.0):
    return Packet(pid, value, 0, src, dst)


class TestStructure:
    def test_is_the_cioq_switch_plus_crosspoints(self, switch):
        assert isinstance(switch, CIOQSwitch)
        assert len(switch.voq) == 3 and len(switch.out) == 3

    def test_crosspoint_grid(self, switch):
        assert len(switch.cross) == 3
        assert all(len(row) == 3 for row in switch.cross)
        assert all(q.capacity == 1 for row in switch.cross for q in row)

    def test_initially_drained(self, switch):
        assert switch.is_drained()

    def test_buffered_packets_covers_all_stages(self, switch):
        a, b = pk(0, 0, 1), pk(1, 1, 2)
        switch.enqueue_arrival(a)
        switch.enqueue_arrival(b)
        switch.apply_input_subphase([Transfer(1, 2, b)])
        assert len(switch.buffered_packets()) == 2
        assert switch.cross_lengths()[1][2] == 1

    def test_buffered_packets_order_and_occupancy(self, switch):
        """VOQ grid, then crosspoint grid, then output queues, each in
        row order and head to tail: the order value_residual sums in."""
        out0 = pk(0, 2, 0, 5.0)
        cross_row1, cross_row0 = pk(1, 1, 1, 3.0), pk(2, 0, 2, 1.0)
        voq_low, voq_high = pk(3, 0, 1, 1.0), pk(4, 0, 1, 2.0)
        for p in (out0, cross_row1, cross_row0, voq_low, voq_high):
            switch.enqueue_arrival(p)
        switch.apply_input_subphase([Transfer(2, 0, out0),
                                     Transfer(1, 1, cross_row1),
                                     Transfer(0, 2, cross_row0)])
        switch.apply_output_subphase([Transfer(2, 0, out0)])
        assert switch.buffered_packets() == [
            voq_high, voq_low, cross_row0, cross_row1, out0]
        assert switch.occupancy_totals() == (2, 2, 1)


class TestInputSubphase:
    def test_moves_voq_to_crosspoint(self, switch):
        p = pk(0, 0, 1)
        switch.enqueue_arrival(p)
        switch.apply_input_subphase([Transfer(0, 1, p)])
        assert switch.voq_lengths()[0][1] == 0
        assert switch.cross_lengths()[0][1] == 1

    def test_one_packet_per_input_port(self, switch):
        a, b = pk(0, 0, 0), pk(1, 0, 1)
        switch.enqueue_arrival(a)
        switch.enqueue_arrival(b)
        with pytest.raises(ScheduleError, match="input port 0"):
            switch.apply_input_subphase(
                [Transfer(0, 0, a), Transfer(0, 1, b)]
            )

    def test_two_inputs_same_output_column_allowed(self, switch):
        """Unlike CIOQ, the input subphase has no per-output constraint."""
        a, b = pk(0, 0, 1), pk(1, 2, 1)
        switch.enqueue_arrival(a)
        switch.enqueue_arrival(b)
        switch.apply_input_subphase(
            [Transfer(0, 1, a), Transfer(2, 1, b)]
        )
        assert switch.cross_lengths()[0][1] == 1
        assert switch.cross_lengths()[2][1] == 1

    def test_full_crosspoint_needs_preemption(self, switch):
        a, b = pk(0, 0, 1), pk(1, 0, 1, value=5.0)
        switch.enqueue_arrival(a)
        switch.enqueue_arrival(b)
        switch.apply_input_subphase([Transfer(0, 1, a)])
        with pytest.raises(ScheduleError, match="full"):
            switch.apply_input_subphase([Transfer(0, 1, b)])
        switch.apply_input_subphase([Transfer(0, 1, b, preempt=a)])
        assert switch.cross[0][1].head().pid == 1

    def test_packet_must_be_in_voq(self, switch):
        with pytest.raises(ScheduleError, match="not in VOQ"):
            switch.apply_input_subphase([Transfer(0, 1, pk(0, 0, 1))])


class TestOutputSubphase:
    def _stage(self, switch, p):
        switch.enqueue_arrival(p)
        switch.apply_input_subphase([Transfer(p.src, p.dst, p)])

    def test_moves_crosspoint_to_output(self, switch):
        p = pk(0, 0, 1)
        self._stage(switch, p)
        switch.apply_output_subphase([Transfer(0, 1, p)])
        assert switch.cross_lengths()[0][1] == 0
        assert switch.out_lengths()[1] == 1

    def test_one_packet_per_output_port(self, switch):
        a, b = pk(0, 0, 1), pk(1, 2, 1)
        self._stage(switch, a)
        self._stage(switch, b)
        with pytest.raises(ScheduleError, match="output port 1"):
            switch.apply_output_subphase(
                [Transfer(0, 1, a), Transfer(2, 1, b)]
            )

    def test_two_outputs_same_input_row_allowed(self, switch):
        """The output subphase has no per-input constraint."""
        a, b = pk(0, 0, 1), pk(1, 0, 2)
        switch.enqueue_arrival(a)
        switch.enqueue_arrival(b)
        switch.apply_input_subphase([Transfer(0, 1, a)])
        switch.apply_input_subphase([Transfer(0, 2, b)])
        switch.apply_output_subphase(
            [Transfer(0, 1, a), Transfer(0, 2, b)]
        )
        assert switch.out_lengths()[1] == 1
        assert switch.out_lengths()[2] == 1

    def test_full_output_needs_preemption(self):
        switch = CrossbarSwitch(SwitchConfig.square(2, b_in=2, b_out=1, b_cross=2))
        cheap = pk(0, 0, 0, value=1.0)
        rich = pk(1, 0, 0, value=9.0)
        for p in (cheap, rich):
            switch.enqueue_arrival(p)
        switch.apply_input_subphase([Transfer(0, 0, rich)])
        switch.apply_output_subphase([Transfer(0, 0, rich)])
        switch.apply_input_subphase([Transfer(0, 0, cheap)])
        with pytest.raises(ScheduleError, match="full"):
            switch.apply_output_subphase([Transfer(0, 0, cheap)])

    def test_packet_must_be_in_crosspoint(self, switch):
        p = pk(0, 0, 1)
        switch.enqueue_arrival(p)
        with pytest.raises(ScheduleError, match="not in crosspoint"):
            switch.apply_output_subphase([Transfer(0, 1, p)])


class TestTransmission:
    def test_full_pipeline_single_packet(self, switch):
        p = pk(0, 2, 0)
        switch.enqueue_arrival(p)
        switch.apply_input_subphase([Transfer(2, 0, p)])
        switch.apply_output_subphase([Transfer(2, 0, p)])
        sel = greedy_head_transmissions(switch)
        assert sel == {0: p}
        assert switch.transmit(sel) == [p]
        assert switch.is_drained()

    def test_transmit_validates_membership(self, switch):
        with pytest.raises(ScheduleError):
            switch.transmit({0: pk(0, 0, 0)})
