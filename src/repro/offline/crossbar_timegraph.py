"""Time-expanded offline optimum for buffered crossbar switches.

The buffered crossbar is the CIOQ switch plus crosspoint queues C_ij,
so :class:`CrossbarOptModel` is the one time-expanded assembly of
:mod:`repro.offline.timegraph` with the crosspoint stage in place of
the single VOQ -> output hop.  Each scheduling cycle (t, s) splits into
the input subphase (VOQ -> crosspoint, at most one packet per *input
port*) followed by the output subphase (crosspoint -> output queue, at
most one packet per *output port*); a packet may traverse both
subphases of the same cycle (it is present in the crosspoint queue when
the output subphase runs).

Crosspoint occupancy peaks right after the input subphase, so the
capacity constraint is ``carry_in + y <= B(C_ij)`` per cycle.

Stage variables (all integral), numbered interleaved per cycle:

* ``y_ijts`` in {0,1}        — input-subphase transfer Q_ij -> C_ij,
* ``z_ijts`` in {0,1}        — output-subphase transfer C_ij -> Q_j,
* ``cc_ijts`` in [0, b_cross] — crosspoint inventory cycle -> next cycle.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

# ``CIOQOptModel.solve`` calls the ``milp`` of the model's own module.
from .highs import milp  # noqa: F401
from .timegraph import CIOQOptModel, OptResult, StageVars


class CrossbarOptModel(CIOQOptModel):
    """Exact offline optimum for a buffered crossbar instance.

    After solving with ``extract_schedule=True``, ``y_events`` and
    ``z_events`` hold the sorted ``(t, s, i, j)`` input- and
    output-subphase transfers; ``departures`` equals ``y_events``.
    """

    def _number_stage(self, pairs: Dict[Tuple[int, int], int],
                      n_var: int) -> int:
        H, S = self.horizon, self.config.speedup
        var_y: StageVars = {}
        var_z: StageVars = {}
        self.var_cc: StageVars = {}
        for (i, j), t0 in pairs.items():
            for t in range(t0, H):
                for s in range(S):
                    var_y[(i, j, t, s)] = n_var
                    var_z[(i, j, t, s)] = n_var + 1
                    n_var += 2
                    if self.free_drain or not (t == H - 1 and s == S - 1):
                        self.var_cc[(i, j, t, s)] = n_var
                        n_var += 1
        self.var_exit, self.var_entry = var_y, var_z
        return n_var

    def _stage_rows(self, upper: np.ndarray,
                    entry: Callable[[int, float], None],
                    row: Callable[[float, float], None]) -> None:
        """Crosspoint conservation and mid-cycle capacity per (i, j, t, s)."""
        S, b_cross = self.config.speedup, self.config.b_cross
        var_cc, var_z = self.var_cc, self.var_entry
        for v in var_cc.values():
            upper[v] = b_cross
        for (i, j, t, s), y in self.var_exit.items():
            # The pair's previous cycle; absent before its first one.
            carry_in = var_cc.get((i, j, t, s - 1) if s else
                                  (i, j, t - 1, S - 1))
            carry_out = var_cc.get((i, j, t, s))
            # Conservation: carry_in + y - z - carry_out = 0.
            if carry_in is not None:
                entry(carry_in, 1.0)
            entry(y, 1.0)
            entry(var_z[(i, j, t, s)], -1.0)
            if carry_out is not None:
                entry(carry_out, -1.0)
            row(0.0, 0.0)
            # Mid-cycle capacity: carry_in + y <= b_cross.
            if carry_in is not None:
                entry(carry_in, 1.0)
                entry(y, 1.0)
                row(-np.inf, float(b_cross))

    def _decode_stage(self, x: np.ndarray, result: OptResult) -> None:
        # The shadow replays consume both subphases' events.
        self.y_events = list(result.departures)
        self.z_events = sorted(
            (t, s, i, j) for (i, j, t, s), v in self.var_entry.items()
            if x[v] > 0.5
        )
