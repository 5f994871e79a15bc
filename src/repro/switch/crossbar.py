"""Buffered crossbar switch state (paper Section 1.3, Figure 2).

The buffered crossbar model is the CIOQ switch plus one crosspoint queue
``C_ij`` per (input i, output j) pair, placed inside the switching
fabric.  Each scheduling cycle splits into two subphases:

* **input subphase** — from each input port ``i``, at most one packet may
  move from some VOQ ``Q_ij`` to its crosspoint queue ``C_ij``;
* **output subphase** — into each output queue ``Q_j``, at most one packet
  may move from some crosspoint queue ``C_ij``.

Because the two subphases impose *per-port* constraints only (no bipartite
matching across ports is required), crossbar scheduling decisions are
purely local — the practical appeal the paper's introduction describes.

:class:`CrossbarSwitch` subclasses :class:`~repro.switch.cioq.CIOQSwitch`
and adds only the crosspoint grid and the two subphases; both apply
:class:`~repro.switch.cioq.Transfer` decisions through the CIOQ switch's
validated move.
"""

from __future__ import annotations

from typing import List, Sequence

from .cioq import _OUT, _VOQ, CIOQSwitch, Transfer
from .config import SwitchConfig
from .queue import BoundedQueue

_CROSS = "crosspoint queue ({i},{j})"


class CrossbarSwitch(CIOQSwitch):
    """Mutable queue state of a buffered crossbar switch."""

    def __init__(self, config: SwitchConfig):
        super().__init__(config)
        #: Crosspoint queues ``cross[i][j]`` = C_ij.
        self.cross: List[List[BoundedQueue]] = self._grid(config.b_cross)
        self._stages[1] = [q for row in self.cross for q in row]
        self._stage_items[1] = [q._items for q in self._stages[1]]

    def cross_lengths(self) -> List[List[int]]:
        return [[len(q) for q in row] for row in self.cross]

    def apply_input_subphase(self, transfers: Sequence[Transfer]) -> None:
        """Execute the input subphase: at most one transfer per input
        port, each from VOQ ``Q_ij`` into crosspoint queue ``C_ij``."""
        self._move(transfers, self.voq, self.cross, True, False,
                   "input subphase", _VOQ, _CROSS)

    def apply_output_subphase(self, transfers: Sequence[Transfer]) -> None:
        """Execute the output subphase: at most one transfer per output
        port, each from crosspoint queue ``C_ij`` into output queue
        ``Q_j``."""
        self._move(transfers, self.cross, self._out_grid, False, True,
                   "output subphase", _CROSS, _OUT)
