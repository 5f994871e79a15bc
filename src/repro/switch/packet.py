"""Packet model (Section 1.3 of the paper).

Every packet ``p`` in an input sequence carries four attributes: its value
``v(p)``, its arrival time ``arr(p)`` (an integer slot index), its input
port ``in(p)`` and its output port ``out(p)``.  All packets have the same
size.  We additionally give every packet a unique integer id, which serves
as the deterministic tie-breaker required by Assumption A3 ("ties are
broken arbitrarily but consistently"): among packets of equal value, the
one with the *smaller* id is treated as the more valuable one.
"""

from __future__ import annotations

from math import inf
from typing import Iterable, Tuple


class Packet:
    """A single fixed-size packet.

    Parameters
    ----------
    pid:
        Unique integer identifier.  Used for deterministic tie-breaking
        (Assumption A3) and for tracking packets through the simulator and
        the offline optimum.
    value:
        The packet's value ``v(p)``; must be positive and finite (NaN
        and infinity are rejected).  Unit-value instances use
        ``value == 1.0`` for every packet.
    arrival:
        Arrival slot ``arr(p)`` (0-based integer).
    src:
        Input port ``in(p)`` (0-based; the paper uses 1-based).
    dst:
        Output port ``out(p)`` (0-based).
    """

    __slots__ = ("pid", "value", "arrival", "src", "dst", "_key")

    def __init__(self, pid: int, value: float, arrival: int, src: int, dst: int):
        # One chained comparison: every generated packet passes here.
        # NaN fails both sides, so it is rejected too.
        if not 0 < value < inf:
            raise ValueError(
                f"packet value must be positive and finite, got {value!r}")
        if arrival < 0:
            raise ValueError(f"arrival slot must be >= 0, got {arrival!r}")
        if src < 0 or dst < 0:
            raise ValueError("ports must be non-negative")
        self.pid = pid
        self.value = float(value)
        self.arrival = int(arrival)
        self.src = int(src)
        self.dst = int(dst)
        # Cached sort key: packets are immutable, and the key is consulted
        # on every queue insertion/removal (the simulator's hottest path).
        self._key = (self.value, -pid)

    # Ordering: "greater" means more valuable, with smaller pid winning ties.
    # This is the total order used everywhere (queues, matchings, OPT).
    def sort_key(self) -> Tuple[float, int]:
        """Key such that sorting ascending puts the *least* valuable first."""
        return self._key

    def beats(self, other: "Packet") -> bool:
        """True if this packet is strictly preferred over ``other``."""
        return self.sort_key() > other.sort_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(pid={self.pid}, v={self.value:g}, t={self.arrival}, "
            f"{self.src}->{self.dst})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return self.pid == other.pid

    def __hash__(self) -> int:
        return hash(self.pid)


def sequential_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0.

    Every float total in the package adds through here, in an order
    its caller states: builtin ``sum()`` of floats is compensated from
    Python 3.12 on, so its last bits would depend on the interpreter.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def total_value(packets: Iterable[Packet]) -> float:
    """Sum of packet values (the *benefit* of sending these packets),
    in the given order."""
    return sequential_sum(p.value for p in packets)
