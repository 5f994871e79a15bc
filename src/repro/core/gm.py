"""Greedy Matching (GM) — Section 2.1 of the paper.

GM is the paper's unit-value CIOQ algorithm, shown 3-competitive for any
speedup (Theorem 1):

* **Arrival phase** — accept packet ``p`` iff VOQ ``Q_{in(p),out(p)}`` is
  not full; never preempt.
* **Scheduling phase** — in cycle ``T[s]``, build the bipartite graph
  ``G_{T[s]}`` with an edge (u_i, v_j) iff ``Q_ij`` is non-empty and
  ``Q_j`` is not full; compute a *greedy maximal matching* by scanning
  edges in an arbitrary fixed order; transfer the head packet of ``Q_ij``
  along every matched edge.
* **Transmission phase** — send the head packet of every non-empty
  output queue.

The edge scan order is a deterministic row-major sweep starting from a
rotating offset.  The paper allows any fixed order; the rotation (off by
one each cycle) avoids the pathological starvation a static order could
induce under sustained overload while keeping runs reproducible.  Set
``rotate=False`` for the plain static row-major order.
"""

from __future__ import annotations

from typing import List

from ..scheduling.base import CIOQPolicy, tail_drop_arrival
from ..switch.cioq import CIOQSwitch, Transfer


class GMPolicy(CIOQPolicy):
    """Greedy Matching: 3-competitive unit-value CIOQ scheduling.

    Parameters
    ----------
    rotate:
        Rotate the edge-scan starting offset by one each scheduling
        cycle (default True).  Any fixed order satisfies Theorem 1.
    """

    name = "GM"

    def __init__(self, rotate: bool = True):
        self.rotate = rotate
        self._cycle_count = 0

    def reset(self, switch: CIOQSwitch) -> None:
        self._cycle_count = 0

    on_arrival = tail_drop_arrival

    def schedule(self, switch: CIOQSwitch, slot: int, cycle: int) -> List[Transfer]:
        n_in, n_out = switch.n_in, switch.n_out
        offset = self._cycle_count % n_in if self.rotate else 0
        self._cycle_count += 1

        # Induced bipartite graph G_{T[s]}: edge (i, j) iff Q_ij non-empty
        # and Q_j not full, scanned row-major from the rotating offset.
        # Hot loop: reads queue internals directly (see BoundedQueue docs).
        voq = switch.voq
        eligible_j = [
            j for j, q in enumerate(switch.out) if len(q._items) < q.capacity
        ]
        order = range(n_in) if offset == 0 else (
            *range(offset, n_in), *range(offset))
        edges = []
        append = edges.append
        for i in order:
            row = voq[i]
            for j in eligible_j:
                if row[j]._items:
                    append((i, j))

        # Greedy maximal matching: one pass over the edges in scan order.
        matched_left = set()
        matched_right = set()
        matching = []
        for i, j in edges:
            if i not in matched_left and j not in matched_right:
                matched_left.add(i)
                matched_right.add(j)
                matching.append((i, j))
        return [Transfer(i, j, voq[i][j]._items[-1]) for i, j in matching]
