"""Unit and property tests for BoundedQueue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.base import preemptive_arrival
from repro.switch.cioq import CIOQSwitch
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.switch.queue import BoundedQueue, QueueOverflowError


def pk(pid, value):
    return Packet(pid, value, 0, 0, 0)


def one_voq_switch(capacity):
    """A 1x1 CIOQ switch: every ``pk`` packet lands in its one VOQ."""
    return CIOQSwitch(SwitchConfig(n_in=1, n_out=1, b_in=capacity))


def admit(switch, p):
    """PG/CPG's arrival rule, applied through the switch.

    Returns ``(accepted, preempted_packet_or_None)``.
    """
    decision = preemptive_arrival(None, switch, p)
    if decision.accept:
        switch.enqueue_arrival(p, decision.preempt)
    return decision.accept, decision.preempt


class TestBasics:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)

    def test_empty_properties(self):
        q = BoundedQueue(3)
        assert q.is_empty
        assert not q.is_full
        assert len(q) == 0
        assert q.head() is None
        assert q.tail() is None

    def test_push_and_len(self):
        q = BoundedQueue(3)
        q.push(pk(0, 5.0))
        assert len(q) == 1
        assert not q.is_empty

    def test_full_detection(self):
        q = BoundedQueue(2)
        q.push(pk(0, 1.0))
        q.push(pk(1, 2.0))
        assert q.is_full

    def test_push_overflow_raises(self):
        q = BoundedQueue(1)
        q.push(pk(0, 1.0))
        with pytest.raises(QueueOverflowError):
            q.push(pk(1, 2.0))

    def test_contains(self):
        q = BoundedQueue(2)
        a = pk(0, 1.0)
        q.push(a)
        assert a in q
        assert pk(1, 1.0) not in q


class TestOrdering:
    def test_head_is_greatest(self):
        q = BoundedQueue(5)
        for pid, v in enumerate([3.0, 7.0, 1.0, 5.0]):
            q.push(pk(pid, v))
        assert q.head().value == 7.0
        assert q.tail().value == 1.0

    def test_iteration_head_to_tail(self):
        q = BoundedQueue(5)
        for pid, v in enumerate([3.0, 7.0, 1.0]):
            q.push(pk(pid, v))
        assert [p.value for p in q] == [7.0, 3.0, 1.0]

    def test_ties_broken_by_pid(self):
        q = BoundedQueue(3)
        q.push(pk(5, 2.0))
        q.push(pk(1, 2.0))
        q.push(pk(3, 2.0))
        # Smaller pid is "greater" (closer to head) under Assumption A3.
        assert [p.pid for p in q] == [1, 3, 5]

    def test_values_and_total(self):
        q = BoundedQueue(3)
        for pid, v in enumerate([4.0, 2.0]):
            q.push(pk(pid, v))
        assert q.values() == [4.0, 2.0]
        assert q.total_value() == 6.0


class TestMutation:
    def test_pop_head(self):
        q = BoundedQueue(3)
        for pid, v in enumerate([1.0, 3.0, 2.0]):
            q.push(pk(pid, v))
        assert q.pop_head().value == 3.0
        assert q.head().value == 2.0

    def test_pop_tail(self):
        q = BoundedQueue(3)
        for pid, v in enumerate([1.0, 3.0, 2.0]):
            q.push(pk(pid, v))
        assert q.pop_tail().value == 1.0
        assert q.tail().value == 2.0

    def test_pop_empty_raises(self):
        q = BoundedQueue(1)
        with pytest.raises(IndexError):
            q.pop_head()
        with pytest.raises(IndexError):
            q.pop_tail()

    def test_remove_specific_packet(self):
        q = BoundedQueue(3)
        mid = pk(1, 2.0)
        q.push(pk(0, 1.0))
        q.push(mid)
        q.push(pk(2, 3.0))
        q.remove(mid)
        assert len(q) == 2
        assert mid not in q

    def test_remove_among_equal_values(self):
        q = BoundedQueue(3)
        a, b, c = pk(0, 2.0), pk(1, 2.0), pk(2, 2.0)
        for p in (a, b, c):
            q.push(p)
        q.remove(b)
        assert b not in q and a in q and c in q

    def test_remove_missing_raises(self):
        q = BoundedQueue(2)
        q.push(pk(0, 1.0))
        with pytest.raises(ValueError):
            q.remove(pk(9, 1.0))

    def test_clear(self):
        q = BoundedQueue(2)
        q.push(pk(0, 1.0))
        q.clear()
        assert q.is_empty


class TestPreemptiveArrival:
    """PG/CPG's arrival rule: accept iff the VOQ has space or its tail
    is worth strictly less, preempting the tail in the second case."""

    def test_accepts_with_space(self):
        switch = one_voq_switch(2)
        accepted, victim = admit(switch, pk(0, 1.0))
        assert accepted and victim is None
        assert len(switch.voq[0][0]) == 1

    def test_preempts_cheaper_tail_when_full(self):
        switch = one_voq_switch(2)
        q = switch.voq[0][0]
        q.push(pk(0, 1.0))
        q.push(pk(1, 5.0))
        accepted, victim = admit(switch, pk(2, 3.0))
        assert accepted
        assert victim.pid == 0
        assert len(q) == 2
        assert q.tail().value == 3.0

    def test_rejects_when_full_and_not_better(self):
        switch = one_voq_switch(1)
        q = switch.voq[0][0]
        q.push(pk(0, 3.0))
        accepted, victim = admit(switch, pk(1, 3.0))
        assert not accepted and victim is None
        assert q.head().pid == 0

    def test_rejects_strictly_smaller(self):
        switch = one_voq_switch(1)
        switch.voq[0][0].push(pk(0, 3.0))
        accepted, _ = admit(switch, pk(1, 2.0))
        assert not accepted


@st.composite
def operations(draw):
    """A random sequence of queue operations."""
    n = draw(st.integers(1, 60))
    ops = []
    for k in range(n):
        kind = draw(st.sampled_from(["push", "pop_head", "pop_tail", "admit"]))
        value = draw(
            st.floats(min_value=0.1, max_value=1000, allow_nan=False)
        )
        ops.append((kind, value))
    return ops


class TestProperties:
    @given(ops=operations(), capacity=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_queue_invariants_hold_under_random_ops(self, ops, capacity):
        switch = one_voq_switch(capacity)
        q = switch.voq[0][0]
        pid = 0
        for kind, value in ops:
            if kind == "push":
                if not q.is_full:
                    q.push(pk(pid, value))
                    pid += 1
            elif kind == "pop_head":
                if not q.is_empty:
                    head = q.pop_head()
                    for p in q:
                        assert not p.beats(head)
            elif kind == "pop_tail":
                if not q.is_empty:
                    tail = q.pop_tail()
                    for p in q:
                        assert not tail.beats(p)
            else:
                admit(switch, pk(pid, value))
                pid += 1
            q.check_invariants()
            assert len(q) <= capacity

    @given(
        values=st.lists(
            st.floats(min_value=0.1, max_value=100, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_preemptive_arrival_keeps_top_k(self, values):
        """After admitting everything into a capacity-k VOQ, the VOQ
        holds the k largest values (the preemption rule is optimal for a
        single queue)."""
        cap = 4
        switch = one_voq_switch(cap)
        for pid, v in enumerate(values):
            admit(switch, pk(pid, v))
        expected = sorted(values, reverse=True)[:cap]
        got = sorted(switch.voq[0][0].values(), reverse=True)
        # Equal values may tie-break either way; compare multisets of values.
        assert got == pytest.approx(expected)
