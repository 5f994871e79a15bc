"""Policy interfaces for the two switch models.

A *policy* makes the decisions of the three phases in Section 1.3:

* **arrival phase** — per arriving packet: accept (possibly preempting a
  queued packet) or reject;
* **scheduling phase** — per scheduling cycle: a set of fabric transfers
  forming an admissible schedule (CIOQ: a matching; crossbar: one packet
  per input port in the input subphase, one per output port in the output
  subphase);
* **transmission phase** — per output port: which packet to send.

Policies only *decide*; the :mod:`repro.simulation.engine` applies the
decisions to the switch state and validates admissibility, so a policy
bug surfaces as a :class:`~repro.switch.cioq.ScheduleError` rather than
as silently inflated benefit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..switch.cioq import CIOQSwitch, Transfer, greedy_head_transmissions
from ..switch.crossbar import CrossbarSwitch
from ..switch.packet import Packet


@dataclass(frozen=True)
class ArrivalDecision:
    """Outcome of the arrival phase for one packet.

    ``accept=False`` means the packet is rejected (discarded on arrival).
    ``preempt`` optionally names a packet currently in the same VOQ that
    is discarded to make room (PG/CPG arrival rule).

    Frozen: the two parameter-free cases are shared singletons, so
    instances must never be mutated after construction.
    """

    accept: bool
    preempt: Optional[Packet] = None

    @classmethod
    def reject(cls) -> "ArrivalDecision":
        return _REJECT

    @classmethod
    def accepted(cls, preempt: Optional[Packet] = None) -> "ArrivalDecision":
        if preempt is None:
            return _ACCEPT
        return cls(accept=True, preempt=preempt)


# The two parameter-free cases occur once per arriving packet — shared
# (frozen) instances keep the arrival phase allocation-free.
_REJECT = ArrivalDecision(accept=False)
_ACCEPT = ArrivalDecision(accept=True)


# The paper's two arrival rules, with the ``on_arrival`` signature:
# policies assign one in their class body (``on_arrival =
# tail_drop_arrival``), so a per-packet call stays a plain method call.
# Both run once per arriving packet and read queue internals directly
# (see BoundedQueue docs).

def tail_drop_arrival(self, switch: CIOQSwitch, packet: Packet) -> ArrivalDecision:
    """Arrival rule of GM and CGU (Sections 2.1 and 3.1): accept ``p``
    iff VOQ ``Q_{in(p),out(p)}`` is not full; never preempt."""
    q = switch.voq[packet.src][packet.dst]
    if len(q._items) >= q.capacity:
        return _REJECT
    return _ACCEPT


def preemptive_arrival(self, switch: CIOQSwitch, packet: Packet) -> ArrivalDecision:
    """Arrival rule of PG and CPG (Sections 2.2 and 3.2): accept ``p``
    iff ``|Q_ij| < B(Q_ij)`` or ``v(l_ij) < v(p)``; in the second case
    preempt the VOQ's tail ``l_ij``."""
    q = switch.voq[packet.src][packet.dst]
    items = q._items
    if len(items) < q.capacity:
        return _ACCEPT
    tail = items[0]
    if tail.value < packet.value:
        return ArrivalDecision(accept=True, preempt=tail)
    return _REJECT


class CIOQPolicy(ABC):
    """Decision interface for CIOQ switches."""

    #: Human-readable policy name used in reports and tables.
    name: str = "cioq-policy"

    def reset(self, switch: CIOQSwitch) -> None:
        """Called once before a simulation starts (clear any policy state)."""

    @abstractmethod
    def on_arrival(self, switch: CIOQSwitch, packet: Packet) -> ArrivalDecision:
        """Decide acceptance of ``packet`` into VOQ Q[packet.src][packet.dst]."""

    @abstractmethod
    def schedule(self, switch: CIOQSwitch, slot: int, cycle: int) -> List[Transfer]:
        """Decide the fabric matching for scheduling cycle ``T[s]``."""

    def select_transmissions(self, switch: CIOQSwitch) -> Dict[int, Packet]:
        """Decide the transmission phase; default: send every head packet.

        All four paper algorithms transmit greedily (the most valuable
        packet of every non-empty output queue), so this default is
        rarely overridden.
        """
        return greedy_head_transmissions(switch)


class CrossbarPolicy(ABC):
    """Decision interface for buffered crossbar switches."""

    name: str = "crossbar-policy"

    def reset(self, switch: CrossbarSwitch) -> None:
        """Called once before a simulation starts (clear any policy state)."""

    @abstractmethod
    def on_arrival(self, switch: CrossbarSwitch, packet: Packet) -> ArrivalDecision:
        """Decide acceptance of ``packet`` into VOQ Q[packet.src][packet.dst]."""

    @abstractmethod
    def input_subphase(
        self, switch: CrossbarSwitch, slot: int, cycle: int
    ) -> List[Transfer]:
        """Decide VOQ -> crosspoint transfers (at most one per input port)."""

    @abstractmethod
    def output_subphase(
        self, switch: CrossbarSwitch, slot: int, cycle: int
    ) -> List[Transfer]:
        """Decide crosspoint -> output transfers (at most one per output)."""

    def select_transmissions(self, switch: CrossbarSwitch) -> Dict[int, Packet]:
        """Default transmission phase: send every output-queue head."""
        return greedy_head_transmissions(switch)
