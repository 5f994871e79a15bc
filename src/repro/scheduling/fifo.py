"""FIFO-discipline ablation policies.

The paper's algorithms exploit non-FIFO queues (packets may be stored
and released in any order; Assumption A3 keeps them value-sorted).  The
related work it improves on (Section 1.2) largely studies *FIFO* queues,
where packets must leave in arrival order — e.g. Kesselman-Rosen's
4s- and 8 min{k, 2 log alpha}-competitive FIFO CIOQ algorithms and the
7.47-competitive algorithm of Azar-Richter/Kesselman et al.

These policies implement the FIFO discipline on the same switch
substrate, as an *ablation* quantifying what value-ordering buys
(experiment T12).  They are faithful to the FIFO model's rules —
head-of-line transfers and transmissions, tail push-out on arrival —
without claiming to be any specific published algorithm:

* :class:`FifoCIOQPolicy` — arrival: accept if space, else push out the
  queue's cheapest packet when the arrival is strictly more valuable
  (the standard FIFO push-out rule, which on the value-sorted VOQs is
  PG's :func:`~repro.scheduling.base.preemptive_arrival`); scheduling:
  greedy maximal matching weighted by the *head-of-line* (earliest)
  packet's value; transfer the head-of-line packet; transmission:
  head-of-line.
* :class:`FifoCrossbarPolicy` — the same discipline on the buffered
  crossbar.

Head-of-line means earliest arrival (smallest pid).  With unit values
FIFO and non-FIFO behaviour coincides packet-count-wise; under value
skew the head-of-line constraint visibly hurts (see T12).
"""

from __future__ import annotations

from typing import List, Optional

from ..switch.cioq import CIOQSwitch, Transfer
from ..switch.crossbar import CrossbarSwitch
from ..switch.packet import Packet
from ..switch.queue import BoundedQueue
from .base import CIOQPolicy, CrossbarPolicy, preemptive_arrival
from .matching import greedy_maximal_matching_weighted


def head_of_line(q: BoundedQueue) -> Optional[Packet]:
    """The earliest-arrived packet in the queue (smallest pid)."""
    best: Optional[Packet] = None
    for p in q:
        if best is None or p.pid < best.pid:
            best = p
    return best


class FifoCIOQPolicy(CIOQPolicy):
    """FIFO-discipline CIOQ scheduling (ablation baseline)."""

    name = "FIFO-CIOQ"
    on_arrival = preemptive_arrival

    def schedule(self, switch: CIOQSwitch, slot: int, cycle: int) -> List[Transfer]:
        edges = []
        hol = {}
        for i in range(switch.n_in):
            for j in range(switch.n_out):
                q = switch.voq[i][j]
                if q.is_empty or switch.out[j].is_full:
                    continue
                h = head_of_line(q)
                assert h is not None
                edges.append((i, j, h.value))
                hol[(i, j)] = h
        matching = greedy_maximal_matching_weighted(edges)
        return [Transfer(i, j, hol[(i, j)]) for i, j, _w in matching]

    def select_transmissions(self, switch: CIOQSwitch):
        sel = {}
        for j, q in enumerate(switch.out):
            h = head_of_line(q)
            if h is not None:
                sel[j] = h
        return sel


class FifoCrossbarPolicy(CrossbarPolicy):
    """FIFO-discipline buffered-crossbar scheduling (ablation baseline)."""

    name = "FIFO-crossbar"
    on_arrival = preemptive_arrival

    def input_subphase(
        self, switch: CrossbarSwitch, slot: int, cycle: int
    ) -> List[Transfer]:
        transfers: List[Transfer] = []
        for i in range(switch.n_in):
            best: Optional[Packet] = None
            best_j = -1
            for j in range(switch.n_out):
                if switch.cross[i][j].is_full:
                    continue
                h = head_of_line(switch.voq[i][j])
                if h is not None and (best is None or h.value > best.value or
                                      (h.value == best.value and h.pid < best.pid)):
                    best = h
                    best_j = j
            if best is not None:
                transfers.append(Transfer(i, best_j, best))
        return transfers

    def output_subphase(
        self, switch: CrossbarSwitch, slot: int, cycle: int
    ) -> List[Transfer]:
        transfers: List[Transfer] = []
        for j in range(switch.n_out):
            if switch.out[j].is_full:
                continue
            best: Optional[Packet] = None
            best_i = -1
            for i in range(switch.n_in):
                h = head_of_line(switch.cross[i][j])
                if h is not None and (best is None or h.value > best.value or
                                      (h.value == best.value and h.pid < best.pid)):
                    best = h
                    best_i = i
            if best is not None:
                transfers.append(Transfer(best_i, j, best))
        return transfers

    def select_transmissions(self, switch: CrossbarSwitch):
        sel = {}
        for j, q in enumerate(switch.out):
            h = head_of_line(q)
            if h is not None:
                sel[j] = h
        return sel
