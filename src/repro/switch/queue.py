"""Bounded non-FIFO packet queues.

The paper's queues (Section 1.3) are *non-FIFO*: packets may be stored in
and released from queues in any order.  Assumption A3 lets us keep every
queue sorted by value, with the most valuable packet at the *head*
(position 1 in the paper's notation) and the least valuable at the *tail*.
Ties are broken consistently by packet id (smaller id = closer to head).

:class:`BoundedQueue` maintains exactly this order with O(log n) binary
search per insertion and O(n) list insertion (queues are small: capacities
are the B(Q) of a switch, typically <= a few dozen), and exposes the
primitives the paper's algorithms need:

* ``head()``   — ``g(t)``: greatest-value packet,
* ``tail()``   — ``l(t)``: least-value packet,
* ``pop_head()`` / ``pop_tail()``,
* ``push()``   — insert, assuming capacity is available.

The paper's arrival rules are policy decisions and live in
:mod:`repro.scheduling.base`; the switch applies them.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Optional, Tuple

from .packet import Packet, sequential_sum


class QueueOverflowError(RuntimeError):
    """Raised when a packet is pushed into a full queue without preemption."""


class BoundedQueue:
    """A capacity-bounded queue kept sorted by descending packet value.

    Internally packets are stored in a Python list sorted *ascending* by
    :meth:`Packet.sort_key`, i.e. ``_items[-1]`` is the head (greatest
    value) and ``_items[0]`` is the tail (least value).  This makes both
    ``pop_head`` and ``pop_tail`` cheap (tail pop is O(n) but n <= B).

    In-package fast paths (the paper policies' arrival rules and
    scheduling loops) are allowed to *read* ``_items`` directly — it is
    always the ascending-sorted packet list, so ``_items[-1]`` is the
    head, ``_items[0]`` the tail, and ``len(_items) < capacity`` means
    "not full" — but must mutate only through the methods below.  The
    one exception is the switch (:mod:`repro.switch.cioq`), whose
    validated move edits ``_items`` and ``_keys`` together in place.
    """

    __slots__ = ("capacity", "_items", "_keys")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._items: List[Packet] = []
        self._keys: List[Tuple[float, int]] = []

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Packet]:
        """Iterate from head (greatest value) to tail (least value)."""
        return iter(reversed(self._items))

    def __contains__(self, p: Packet) -> bool:
        return self.find(p) >= 0

    def find(self, p: Packet) -> int:
        """Index of ``p`` in the internal ascending order, or -1.

        O(log n) via the sort key; equal-key runs cannot occur (keys
        embed the unique pid), so at most one probe is needed.
        """
        keys = self._keys
        idx = bisect_left(keys, p._key)
        if idx < len(keys) and self._items[idx].pid == p.pid:
            return idx
        return -1

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def head(self) -> Optional[Packet]:
        """The most valuable packet (``g_ij(t)``), or None if empty."""
        return self._items[-1] if self._items else None

    def tail(self) -> Optional[Packet]:
        """The least valuable packet (``l_ij(t)``), or None if empty."""
        return self._items[0] if self._items else None

    def packets(self) -> List[Packet]:
        """Snapshot list from head to tail."""
        return list(reversed(self._items))

    def values(self) -> List[float]:
        """Packet values from head to tail."""
        return [p.value for p in reversed(self._items)]

    def total_value(self) -> float:
        return sequential_sum(p.value for p in self._items)

    # -- mutation -----------------------------------------------------------

    def push(self, p: Packet) -> None:
        """Insert ``p`` maintaining sort order; raises if the queue is full."""
        items = self._items
        if len(items) >= self.capacity:
            raise QueueOverflowError(
                f"queue at capacity {self.capacity}; cannot push packet {p.pid}"
            )
        key = p._key
        idx = bisect_left(self._keys, key)
        items.insert(idx, p)
        self._keys.insert(idx, key)

    def pop_head(self) -> Packet:
        """Remove and return the most valuable packet."""
        if not self._items:
            raise IndexError("pop_head from empty queue")
        self._keys.pop()
        return self._items.pop()

    def pop_tail(self) -> Packet:
        """Remove and return the least valuable packet."""
        if not self._items:
            raise IndexError("pop_tail from empty queue")
        self._keys.pop(0)
        return self._items.pop(0)

    def remove(self, p: Packet) -> None:
        """Remove a specific packet (used by preemption bookkeeping)."""
        idx = self.find(p)
        if idx < 0:
            raise ValueError(f"packet {p.pid} not in queue")
        del self._items[idx]
        del self._keys[idx]

    def clear(self) -> None:
        self._items.clear()
        self._keys.clear()

    def check_invariants(self) -> None:
        """Assert internal consistency (used by tests and debug hooks)."""
        assert len(self._items) == len(self._keys)
        assert len(self._items) <= self.capacity
        for i, p in enumerate(self._items):
            assert self._keys[i] == p.sort_key()
            if i > 0:
                assert self._keys[i - 1] < self._keys[i], "queue must be sorted"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        vals = ", ".join(f"{p.value:g}" for p in reversed(self._items))
        return f"BoundedQueue(cap={self.capacity}, head->tail=[{vals}])"
