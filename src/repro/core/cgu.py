"""Crossbar Greedy Unit (CGU) — Section 3.1 of the paper.

CGU is the unit-value buffered-crossbar algorithm of Kesselman, Kogan
and Segal; the paper's contribution is an improved analysis showing it
is 3-competitive for any speedup (Theorem 3), down from the previously
known ratio of 4.

* **Arrival phase** — as GM (the shared tail-drop rule
  :func:`~repro.scheduling.base.tail_drop_arrival`): accept iff the VOQ
  is not full.
* **Input subphase** — for each input port ``i``, choose an *arbitrary*
  VOQ ``Q_ij`` with ``|Q_ij| > 0`` and ``|C_ij| < B(C_ij)`` and transfer
  its head packet to the crosspoint queue ``C_ij``.
* **Output subphase** — for each output port ``j``, choose an arbitrary
  crosspoint queue ``C_ij`` with ``|C_ij| > 0`` while ``|Q_j| < B(Q_j)``
  and transfer its head packet to the output queue.
* **Transmission phase** — send the head of every non-empty output
  queue.

"Arbitrary" is implemented as a deterministic first-eligible scan with a
per-cycle rotating offset (reproducible, starvation-free); CGU never
preempts.
"""

from __future__ import annotations

from typing import List

from ..scheduling.base import CrossbarPolicy, tail_drop_arrival
from ..switch.cioq import Transfer
from ..switch.crossbar import CrossbarSwitch


class CGUPolicy(CrossbarPolicy):
    """Crossbar Greedy Unit: 3-competitive unit-value crossbar scheduling.

    Parameters
    ----------
    rotate:
        Rotate the first-eligible scan offset each cycle (default True).
        Any arbitrary choice rule satisfies Theorem 3.
    """

    name = "CGU"

    def __init__(self, rotate: bool = True):
        self.rotate = rotate
        self._cycle_count = 0

    def reset(self, switch: CrossbarSwitch) -> None:
        self._cycle_count = 0

    on_arrival = tail_drop_arrival

    def input_subphase(
        self, switch: CrossbarSwitch, slot: int, cycle: int
    ) -> List[Transfer]:
        n_out = switch.n_out
        offset = self._cycle_count % n_out if self.rotate else 0
        # Rotated first-eligible scan order, precomputed once per cycle.
        order = range(n_out) if offset == 0 else (
            *range(offset, n_out), *range(offset))
        transfers: List[Transfer] = []
        append = transfers.append
        # Hot loop: reads queue internals directly (see BoundedQueue docs).
        cross = switch.cross
        for i, vrow in enumerate(switch.voq):
            crow = cross[i]
            for j in order:
                items = vrow[j]._items
                if items:
                    cq = crow[j]
                    if len(cq._items) < cq.capacity:
                        append(Transfer(i, j, items[-1]))
                        break
        return transfers

    def output_subphase(
        self, switch: CrossbarSwitch, slot: int, cycle: int
    ) -> List[Transfer]:
        n_in = switch.n_in
        offset = self._cycle_count % n_in if self.rotate else 0
        self._cycle_count += 1
        order = range(n_in) if offset == 0 else (
            *range(offset, n_in), *range(offset))
        transfers: List[Transfer] = []
        append = transfers.append
        cross = switch.cross
        for j, oq in enumerate(switch.out):
            if len(oq._items) >= oq.capacity:
                continue
            for i in order:
                items = cross[i][j]._items
                if items:
                    append(Transfer(i, j, items[-1]))
                    break
        return transfers
