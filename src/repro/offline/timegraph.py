"""Time-expanded offline optimum for CIOQ switches.

The offline optimum OPT of the competitive framework maximizes delivered
value knowing the whole input sequence.  Because all queues are non-FIFO
and values are fixed, OPT never benefits from preemption or from
accepting a packet it will not deliver (rejecting at arrival dominates:
it frees the same capacity earlier).  Hence OPT is exactly the maximum-
value set of packets that can be routed through the time-expanded switch
— arrival slot -> VOQ inventory -> one scheduling-cycle hop -> output
queue inventory -> transmission slot — subject to:

* VOQ occupancy <= B(Q_ij) right after each arrival phase (occupancy is
  largest at that point within a slot),
* at most one packet leaves input port i per scheduling cycle,
* at most one packet enters output queue j per scheduling cycle,
* output occupancy <= B(Q_j) right after each scheduling phase,
* at most one transmission per output port per slot.

The port constraints couple cycle arcs that share no graph node (a
packet must leave through *its own* output), so the exact problem is the
small integer program assembled by :class:`CIOQOptModel` (solved with
HiGHS via :func:`scipy.optimize.milp`; the LP relaxation is almost
always integral, so branching is rare).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from ..simulation.engine import drain_bound
from ..switch.config import SwitchConfig
from ..traffic.trace import Trace


@dataclass
class OptResult:
    """Outcome of an offline-optimum computation.

    Exact solves report ``benefit`` alone; the windowed and bounds
    solvers (:mod:`repro.offline.windowed`, :mod:`repro.offline.bounds`)
    additionally certify a bracket ``opt_lower <= OPT <= opt_upper`` and
    set ``benefit = opt_upper`` (the conservative denominator for
    competitive ratios).  ``mode`` records which solver produced the
    result so downstream consumers never mistake a bracket for an exact
    optimum.
    """

    benefit: float
    n_delivered: int
    accepted_pids: List[int] = field(default_factory=list)
    status: str = "optimal"
    #: Departure events: (slot, cycle, i, j) with multiplicity.
    departures: List[Tuple[int, int, int, int]] = field(default_factory=list)
    #: Transmission events: (slot, j) with multiplicity.
    transmissions: List[Tuple[int, int]] = field(default_factory=list)
    #: Which solver produced the result: "exact", "windowed" or "bounds".
    mode: str = "exact"
    #: Certified bracket ends; ``None`` means "exact" (both equal benefit).
    opt_lower: Optional[float] = None
    opt_upper: Optional[float] = None
    #: Window width in arrival slots (windowed mode only).
    window: Optional[int] = None
    #: Number of windows the trace was split into (1 for exact/bounds).
    n_windows: int = 1

    @property
    def is_exact(self) -> bool:
        """True when ``benefit`` is the true optimum, not a bracket end."""
        return self.mode == "exact" or self.bracket_width == 0.0

    @property
    def bracket(self) -> Tuple[float, float]:
        """Certified ``(lower, upper)`` bracket on the true OPT value."""
        if self.opt_lower is None or self.opt_upper is None:
            return (self.benefit, self.benefit)
        return (self.opt_lower, self.opt_upper)

    @property
    def bracket_width(self) -> float:
        lo, hi = self.bracket
        return hi - lo

    @property
    def rel_bracket_width(self) -> float:
        """Bracket width relative to the upper end (0 for exact)."""
        lo, hi = self.bracket
        return 0.0 if hi == 0 else (hi - lo) / hi


def default_horizon(trace: Trace, config: SwitchConfig) -> int:
    """Arrival slots plus a drain period that always suffices for OPT."""
    return trace.n_slots + drain_bound(config)


class CIOQOptModel:
    """Exact offline optimum for a CIOQ instance via integer programming.

    Variable classes (all integral):

    * ``a_p``    in {0,1} — packet p is accepted *and delivered*,
    * ``x_ijts`` in {0,1} — a packet moves Q_ij -> Q_j in cycle (t, s),
    * ``h_ijt``  in [0, b_in]  — VOQ inventory carried from slot t to t+1,
    * ``g_jt``   in [0, b_out] — output inventory carried from t to t+1,
    * ``w_jt``   in {0,1} — a transmission from output j in slot t.

    Inventory variables at the final slot are simply not created, which
    forces OPT to drain by the horizon (the horizon includes a
    sufficient drain period, so this costs nothing).
    """

    def __init__(
        self,
        trace: Trace,
        config: SwitchConfig,
        horizon: Optional[int] = None,
    ):
        if trace.n_in != config.n_in or trace.n_out != config.n_out:
            raise ValueError("trace/config dimension mismatch")
        self.trace = trace
        self.config = config
        self.horizon = horizon if horizon is not None else default_horizon(
            trace, config
        )
        if trace.packets and self.horizon <= trace.packets[-1].arrival:
            raise ValueError("horizon must extend past the last arrival")
        self._built = False

    # -- model assembly -------------------------------------------------------

    def build(self) -> None:
        if self._built:
            return
        cfg = self.config
        H = self.horizon
        S = cfg.speedup
        packets = self.trace.packets

        # Active windows: (i, j) pairs only matter from their first arrival.
        first_arrival: Dict[Tuple[int, int], int] = {}
        arrivals_at: Dict[Tuple[int, int, int], List[int]] = {}
        for idx, p in enumerate(packets):
            key = (p.src, p.dst)
            if key not in first_arrival or p.arrival < first_arrival[key]:
                first_arrival[key] = p.arrival
            arrivals_at.setdefault((p.src, p.dst, p.arrival), []).append(idx)
        out_first: Dict[int, int] = {}
        for (i, j), t0 in first_arrival.items():
            if j not in out_first or t0 < out_first[j]:
                out_first[j] = t0

        # ---- variable numbering ----
        n_var = 0
        self.var_a: List[int] = []
        for _ in packets:
            self.var_a.append(n_var)
            n_var += 1
        self.var_x: Dict[Tuple[int, int, int, int], int] = {}
        for (i, j), t0 in first_arrival.items():
            for t in range(t0, H):
                for s in range(S):
                    self.var_x[(i, j, t, s)] = n_var
                    n_var += 1
        self.var_h: Dict[Tuple[int, int, int], int] = {}
        for (i, j), t0 in first_arrival.items():
            for t in range(t0, H - 1):
                self.var_h[(i, j, t)] = n_var
                n_var += 1
        self.var_g: Dict[Tuple[int, int], int] = {}
        self.var_w: Dict[Tuple[int, int], int] = {}
        for j, t0 in out_first.items():
            for t in range(t0, H - 1):
                self.var_g[(j, t)] = n_var
                n_var += 1
            for t in range(t0, H):
                self.var_w[(j, t)] = n_var
                n_var += 1
        self.n_var = n_var

        lower = np.zeros(n_var)
        upper = np.ones(n_var)
        for key, v in self.var_h.items():
            upper[v] = cfg.b_in
        for key, v in self.var_g.items():
            upper[v] = cfg.b_out
        self.bounds = Bounds(lower, upper)

        obj = np.zeros(n_var)
        for idx, p in enumerate(packets):
            obj[self.var_a[idx]] = -p.value  # milp minimizes
        self.objective = obj

        # ---- constraint rows (COO assembly) ----
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        lb: List[float] = []
        ub: List[float] = []
        r = 0

        def add_entry(col: int, val: float) -> None:
            rows.append(r)
            cols.append(col)
            vals.append(val)

        # VOQ conservation and capacity, per (i, j, t).
        for (i, j), t0 in first_arrival.items():
            for t in range(t0, H):
                accepted_here = arrivals_at.get((i, j, t), [])
                # Conservation: accepts + h_{t-1} - sum_s x - h_t = 0.
                for idx in accepted_here:
                    add_entry(self.var_a[idx], 1.0)
                if (i, j, t - 1) in self.var_h:
                    add_entry(self.var_h[(i, j, t - 1)], 1.0)
                for s in range(S):
                    add_entry(self.var_x[(i, j, t, s)], -1.0)
                if (i, j, t) in self.var_h:
                    add_entry(self.var_h[(i, j, t)], -1.0)
                lb.append(0.0)
                ub.append(0.0)
                r += 1
                # Capacity: accepts + h_{t-1} <= b_in (only binding when
                # arrivals occur; h alone is bounded by its var bound).
                if accepted_here:
                    for idx in accepted_here:
                        add_entry(self.var_a[idx], 1.0)
                    if (i, j, t - 1) in self.var_h:
                        add_entry(self.var_h[(i, j, t - 1)], 1.0)
                    lb.append(-np.inf)
                    ub.append(float(cfg.b_in))
                    r += 1

        # Port budgets per cycle.
        by_input: Dict[Tuple[int, int, int], List[int]] = {}
        by_output: Dict[Tuple[int, int, int], List[int]] = {}
        for (i, j, t, s), v in self.var_x.items():
            by_input.setdefault((i, t, s), []).append(v)
            by_output.setdefault((j, t, s), []).append(v)
        for group in by_input.values():
            if len(group) == 1:
                continue  # single arc: its own [0,1] bound suffices
            for v in group:
                add_entry(v, 1.0)
            lb.append(-np.inf)
            ub.append(1.0)
            r += 1
        for group in by_output.values():
            if len(group) == 1:
                continue
            for v in group:
                add_entry(v, 1.0)
            lb.append(-np.inf)
            ub.append(1.0)
            r += 1

        # Output queue conservation and capacity, per (j, t).
        x_into_out: Dict[Tuple[int, int], List[int]] = {}
        for (i, j, t, s), v in self.var_x.items():
            x_into_out.setdefault((j, t), []).append(v)
        for j, t0 in out_first.items():
            for t in range(t0, H):
                incoming = x_into_out.get((j, t), [])
                for v in incoming:
                    add_entry(v, 1.0)
                if (j, t - 1) in self.var_g:
                    add_entry(self.var_g[(j, t - 1)], 1.0)
                add_entry(self.var_w[(j, t)], -1.0)
                if (j, t) in self.var_g:
                    add_entry(self.var_g[(j, t)], -1.0)
                lb.append(0.0)
                ub.append(0.0)
                r += 1
                # Capacity: incoming + g_{t-1} <= b_out.
                if incoming:
                    for v in incoming:
                        add_entry(v, 1.0)
                    if (j, t - 1) in self.var_g:
                        add_entry(self.var_g[(j, t - 1)], 1.0)
                    lb.append(-np.inf)
                    ub.append(float(cfg.b_out))
                    r += 1

        self.A = sparse.coo_matrix(
            (vals, (rows, cols)), shape=(r, n_var)
        ).tocsc()
        self.row_lb = np.asarray(lb)
        self.row_ub = np.asarray(ub)
        self._built = True

    # -- solving ----------------------------------------------------------------

    def solve(self, extract_schedule: bool = False) -> OptResult:
        """Solve the model to proven optimality."""
        if not self.trace.packets:
            return OptResult(benefit=0.0, n_delivered=0)
        self.build()
        res = milp(
            c=self.objective,
            constraints=LinearConstraint(self.A, self.row_lb, self.row_ub),
            integrality=np.ones(self.n_var),
            bounds=self.bounds,
        )
        if res.status != 0 or res.x is None:
            raise RuntimeError(f"OPT MILP failed: status={res.status} "
                               f"message={res.message!r}")
        x = res.x
        accepted = [
            self.trace.packets[idx].pid
            for idx in range(len(self.trace.packets))
            if x[self.var_a[idx]] > 0.5
        ]
        benefit = float(
            sum(
                self.trace.packets[idx].value
                for idx in range(len(self.trace.packets))
                if x[self.var_a[idx]] > 0.5
            )
        )
        result = OptResult(
            benefit=benefit,
            n_delivered=len(accepted),
            accepted_pids=accepted,
        )
        if extract_schedule:
            for (i, j, t, s), v in self.var_x.items():
                if x[v] > 0.5:
                    result.departures.append((t, s, i, j))
            for (j, t), v in self.var_w.items():
                if x[v] > 0.5:
                    result.transmissions.append((t, j))
            result.departures.sort()
            result.transmissions.sort()
        return result
