"""Unit tests for the Packet model."""

import pytest

from repro.switch.packet import Packet, total_value
from repro.traffic.trace import Trace


class TestPacketConstruction:
    def test_basic_attributes(self):
        p = Packet(pid=1, value=2.5, arrival=3, src=0, dst=1)
        assert p.pid == 1
        assert p.value == 2.5
        assert p.arrival == 3
        assert p.src == 0
        assert p.dst == 1

    def test_value_coerced_to_float(self):
        p = Packet(0, 2, 0, 0, 0)
        assert isinstance(p.value, float)

    def test_rejects_zero_value(self):
        with pytest.raises(ValueError):
            Packet(0, 0.0, 0, 0, 0)

    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            Packet(0, -1.0, 0, 0, 0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_rejects_non_finite_value(self, value):
        with pytest.raises(ValueError, match="finite"):
            Packet(0, value, 0, 0, 0)

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            Packet(0, 1.0, -1, 0, 0)

    def test_rejects_negative_ports(self):
        with pytest.raises(ValueError):
            Packet(0, 1.0, 0, -1, 0)
        with pytest.raises(ValueError):
            Packet(0, 1.0, 0, 0, -2)


class TestPacketOrdering:
    def test_higher_value_beats(self):
        a = Packet(0, 5.0, 0, 0, 0)
        b = Packet(1, 3.0, 0, 0, 0)
        assert a.beats(b)
        assert not b.beats(a)

    def test_tie_broken_by_smaller_pid(self):
        a = Packet(0, 5.0, 0, 0, 0)
        b = Packet(1, 5.0, 0, 0, 0)
        assert a.beats(b)
        assert not b.beats(a)

    def test_sort_key_orders_ascending_by_value(self):
        ps = [Packet(i, v, 0, 0, 0) for i, v in enumerate([3.0, 1.0, 2.0])]
        ordered = sorted(ps, key=lambda p: p.sort_key())
        assert [p.value for p in ordered] == [1.0, 2.0, 3.0]

    def test_equality_and_hash_by_pid(self):
        a = Packet(7, 1.0, 0, 0, 0)
        b = Packet(7, 2.0, 1, 1, 1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Packet(8, 1.0, 0, 0, 0)

    def test_equality_with_non_packet(self):
        assert Packet(0, 1.0, 0, 0, 0) != "packet"


class TestHelpers:
    def test_total_value(self):
        ps = [Packet(i, float(i + 1), 0, 0, 0) for i in range(4)]
        assert total_value(ps) == 10.0

    def test_total_value_empty(self):
        assert total_value([]) == 0.0

    def test_trace_sorts_by_arrival_then_pid(self):
        ps = [
            Packet(2, 1.0, 1, 0, 0),
            Packet(0, 1.0, 0, 0, 0),
            Packet(1, 1.0, 1, 0, 0),
        ]
        out = Trace(ps, 1, 1).packets
        assert [p.pid for p in out] == [0, 1, 2]
        # Same slot, pids reversed: arrival order alone looks sorted.
        ps = [Packet(1, 1.0, 0, 0, 0), Packet(0, 1.0, 0, 0, 0)]
        out = Trace(ps, 1, 1).packets
        assert [p.pid for p in out] == [0, 1]

    def test_trace_rejects_duplicate_pid(self):
        ps = [Packet(0, 1.0, 0, 0, 0), Packet(0, 1.0, 1, 0, 0)]
        with pytest.raises(ValueError, match="duplicate packet id 0"):
            Trace(ps, 1, 1)

    def test_trace_rejects_src_out_of_range(self):
        with pytest.raises(ValueError,
                           match=r"packet 0: src 2 out of range \[0,2\)"):
            Trace([Packet(0, 1.0, 0, 2, 0)], 2, 2)

    def test_trace_rejects_dst_out_of_range(self):
        with pytest.raises(ValueError,
                           match=r"packet 0: dst 5 out of range \[0,2\)"):
            Trace([Packet(0, 1.0, 0, 0, 5)], 2, 2)
