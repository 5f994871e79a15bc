"""Time-expanded offline optimum for CIOQ and buffered crossbar switches.

The offline optimum OPT of the competitive framework maximizes delivered
value knowing the whole input sequence.  Because all queues are non-FIFO
and values are fixed, OPT never benefits from preemption or from
accepting a packet it will not deliver (rejecting at arrival dominates:
it frees the same capacity earlier).  Hence OPT is exactly the maximum-
value set of packets that can be routed through the time-expanded switch
— arrival slot -> VOQ inventory -> per-cycle stage -> output queue
inventory -> transmission slot — subject to:

* VOQ occupancy <= B(Q_ij) right after each arrival phase (occupancy is
  largest at that point within a slot),
* at most one packet leaves input port i per scheduling cycle,
* at most one packet enters output queue j per scheduling cycle,
* output occupancy <= B(Q_j) right after each scheduling phase,
* at most one transmission per output port per slot.

The port constraints couple cycle arcs that share no graph node (a
packet must leave through *its own* output), so the exact problem is the
small integer program assembled by :class:`CIOQOptModel`, solved with
HiGHS through the binding scipy bundles (:mod:`repro.offline.highs`,
without importing ``scipy.optimize``).  Its LP relaxation usually has an
integral optimal vertex, which is then an optimal integer solution, so
:meth:`CIOQOptModel.solve` solves the LP first and runs the integer
program only when the vertex is fractional (7 of the 70 solves of the
builtin scenario catalog).

**Free drain.**  By default the model spans the arrival slots only and
leaves the VOQ, crosspoint and output inventories after the last slot
free within their capacities.  This is exact: with no arrivals, any
buffer state within capacity delivers at least one packet per slot (the
argument behind :func:`~repro.simulation.engine.drain_bound`), so every
packet OPT still holds at the end is delivered later, and accepted
equals delivered.  An explicit horizon instead forces every queue empty
by then (*forced drain*), which schedule extraction needs.

Both switch models share this one assembly and differ only in the
per-cycle stage: a single hop Q_ij -> Q_j for CIOQ, and for the buffered
crossbar (:class:`~repro.offline.crossbar_timegraph.CrossbarOptModel`)
the crosspoint stage Q_ij -> C_ij -> Q_j with capacity B(C_ij).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..simulation.engine import drain_bound
from ..switch.config import SwitchConfig
from ..switch.packet import sequential_sum
from ..traffic.trace import Trace
from .highs import lp
# ``solve`` calls ``milp`` through the model's own module.
from .highs import milp  # noqa: F401

#: Cycle-stage variables, keyed ``(i, j, t, s)``.
StageVars = Dict[Tuple[int, int, int, int], int]

#: How far an LP column may lie from an integer for the vertex to count
#: as integral: HiGHS's default ``mip_feasibility_tolerance``, the same
#: test its MILP solver applies to an incumbent.
INTEGRALITY_TOL = 1e-6


@dataclass
class OptResult:
    """Outcome of an offline-optimum computation.

    Exact solves report ``benefit`` alone; the bounds solver
    (:mod:`repro.offline.bounds`) additionally certifies a bracket
    ``opt_lower <= OPT <= opt_upper`` and sets ``benefit = opt_upper``
    (the conservative denominator for competitive ratios).  ``mode``
    records which solver produced the result so downstream consumers
    never mistake a bracket for an exact optimum.
    """

    benefit: float
    n_delivered: int
    accepted_pids: List[int] = field(default_factory=list)
    #: Departure events: (slot, cycle, i, j) with multiplicity.
    departures: List[Tuple[int, int, int, int]] = field(default_factory=list)
    #: Transmission events: (slot, j) with multiplicity.
    transmissions: List[Tuple[int, int]] = field(default_factory=list)
    #: Which solver produced the result: "exact" or "bounds".
    mode: str = "exact"
    #: Certified bracket ends; ``None`` means "exact" (both equal benefit).
    opt_lower: Optional[float] = None
    opt_upper: Optional[float] = None

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
    """Arrival slots plus a drain period that always suffices for OPT.

    A forced-drain model at this horizon has the free-drain default's
    optimum; schedule extraction solves it.
    """
    return trace.n_slots + drain_bound(config)


class CIOQOptModel:
    """Exact offline optimum for a CIOQ instance via integer programming.

    Variable classes (all integral), numbered in this order:

    * ``a_p``    in {0,1} — packet p is accepted *and delivered* (column p),
    * the cycle stage — for CIOQ ``x_ijts`` in {0,1}, a packet moves
      Q_ij -> Q_j in cycle (t, s),
    * ``h_ijt``  in [0, b_in]  — VOQ inventory carried from slot t to t+1,
    * ``g_jt``   in [0, b_out] — output inventory carried from t to t+1,
    * ``w_jt``   in {0,1} — a transmission from output j in slot t.

    Rows, in order: VOQ conservation and capacity, input-port budgets,
    the stage's own rows (none for CIOQ), output-port budgets, output
    queue conservation and capacity.  A subclass changes the stage
    through :meth:`_number_stage`, :meth:`_stage_rows` and
    :meth:`_decode_stage` only.

    With ``horizon=None`` the model covers the ``trace.n_slots`` arrival
    slots and keeps ``h`` and ``g`` (and the crossbar's last crosspoint
    inventory) at the final slot, bounded by their capacities: free
    drain, exact by the argument in the module docstring.  An explicit
    ``horizon`` creates no final-slot inventories, which forces OPT to
    drain by the horizon.  ``solve(extract_schedule=True)`` needs every
    delivery in the schedule, so on a free-drain model it first rebuilds
    the same object with forced drain at :func:`default_horizon`.
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
        self.free_drain = horizon is None
        self.horizon = trace.n_slots if horizon is None else horizon
        if trace.packets and self.horizon <= trace.packets[-1].arrival:
            raise ValueError("horizon must extend past the last arrival")
        self._built = False

    # -- cycle stage ----------------------------------------------------------

    def _number_stage(self, pairs: Dict[Tuple[int, int], int],
                      n_var: int) -> int:
        """Number the stage columns from ``n_var``; return the next free one.

        ``pairs`` maps each active (i, j) to its first arrival slot.  Sets
        ``var_exit`` (leaves Q_ij in cycle (t, s)) and ``var_entry``
        (enters Q_j in cycle (t, s)); for CIOQ both are ``x_ijts``.
        """
        H, S = self.horizon, self.config.speedup
        var_x: StageVars = {}
        for (i, j), t0 in pairs.items():
            for t in range(t0, H):
                for s in range(S):
                    var_x[(i, j, t, s)] = n_var
                    n_var += 1
        self.var_exit = self.var_entry = var_x
        return n_var

    def _stage_rows(self, upper: np.ndarray,
                    entry: Callable[[int, float], None],
                    row: Callable[[float, float], None]) -> None:
        """Stage bounds and rows between the two port budgets (CIOQ: none).

        ``entry(col, val)`` adds a coefficient to the open row, ``row(lo,
        hi)`` closes it; ``upper`` holds the variable upper bounds.
        """

    def _decode_stage(self, x: np.ndarray, result: OptResult) -> None:
        """Stage events beyond ``result.departures`` (CIOQ: none)."""

    # -- model assembly -------------------------------------------------------

    def build(self) -> None:
        if self._built:
            return
        cfg = self.config
        H = self.horizon
        S = cfg.speedup
        packets = self.trace.packets
        # Inventories carry out of every slot but the last, and out of
        # the last one too under free drain.
        carry_end = H if self.free_drain else H - 1

        # Active windows: (i, j) pairs only matter from their first arrival
        # (a trace keeps its packets sorted by arrival).
        first_arrival: Dict[Tuple[int, int], int] = {}
        arrivals_at: Dict[Tuple[int, int, int], List[int]] = {}
        for idx, p in enumerate(packets):
            first_arrival.setdefault((p.src, p.dst), p.arrival)
            arrivals_at.setdefault((p.src, p.dst, p.arrival), []).append(idx)
        out_first: Dict[int, int] = {}
        for (i, j), t0 in first_arrival.items():
            out_first.setdefault(j, t0)

        # ---- variable numbering: a_p is column p ----
        n_var = self._number_stage(first_arrival, len(packets))
        self.var_h: Dict[Tuple[int, int, int], int] = {}
        for (i, j), t0 in first_arrival.items():
            for t in range(t0, carry_end):
                self.var_h[(i, j, t)] = n_var
                n_var += 1
        self.var_g: Dict[Tuple[int, int], int] = {}
        self.var_w: Dict[Tuple[int, int], int] = {}
        for j, t0 in out_first.items():
            for t in range(t0, carry_end):
                self.var_g[(j, t)] = n_var
                n_var += 1
            for t in range(t0, H):
                self.var_w[(j, t)] = n_var
                n_var += 1
        self.n_var = n_var

        upper = np.ones(n_var)
        for v in self.var_h.values():
            upper[v] = cfg.b_in
        for v in self.var_g.values():
            upper[v] = cfg.b_out

        obj = np.zeros(n_var)
        for idx, p in enumerate(packets):
            obj[idx] = -p.value  # milp minimizes
        self.objective = obj

        # ---- constraint rows (COO assembly) ----
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        lb: List[float] = []
        ub: List[float] = []
        r = 0

        def entry(col: int, val: float) -> None:
            rows.append(r)
            cols.append(col)
            vals.append(val)

        def row(lo: float, hi: float) -> None:
            nonlocal r
            lb.append(lo)
            ub.append(hi)
            r += 1

        def port_budget(groups: Dict[Tuple[int, int, int], List[int]]) -> None:
            # At most one packet per port and cycle.
            for group in groups.values():
                if len(group) == 1:
                    continue  # single arc: its own [0,1] bound suffices
                for v in group:
                    entry(v, 1.0)
                row(-np.inf, 1.0)

        def queue_rows(inflow: List[int], carry_in: Optional[int],
                       outflow: List[int], carry_out: Optional[int],
                       cap: int) -> None:
            # Conservation: inflow + carry_in - outflow - carry_out = 0.
            for v in inflow:
                entry(v, 1.0)
            if carry_in is not None:
                entry(carry_in, 1.0)
            for v in outflow:
                entry(v, -1.0)
            if carry_out is not None:
                entry(carry_out, -1.0)
            row(0.0, 0.0)
            # Capacity: inflow + carry_in <= cap (only binding when
            # something flows in; the carry alone has its var bound).
            if inflow:
                for v in inflow:
                    entry(v, 1.0)
                if carry_in is not None:
                    entry(carry_in, 1.0)
                row(-np.inf, float(cap))

        # VOQ rows per (i, j, t): accepted arrivals in, stage exits out.
        var_exit, var_h = self.var_exit, self.var_h
        for (i, j), t0 in first_arrival.items():
            for t in range(t0, H):
                queue_rows(arrivals_at.get((i, j, t), []),
                           var_h.get((i, j, t - 1)),
                           [var_exit[(i, j, t, s)] for s in range(S)],
                           var_h.get((i, j, t)), cfg.b_in)

        by_input: Dict[Tuple[int, int, int], List[int]] = {}
        for (i, j, t, s), v in var_exit.items():
            by_input.setdefault((i, t, s), []).append(v)
        by_output: Dict[Tuple[int, int, int], List[int]] = {}
        into_out: Dict[Tuple[int, int], List[int]] = {}
        for (i, j, t, s), v in self.var_entry.items():
            by_output.setdefault((j, t, s), []).append(v)
            into_out.setdefault((j, t), []).append(v)
        port_budget(by_input)
        self._stage_rows(upper, entry, row)
        port_budget(by_output)

        # Output queue rows per (j, t): stage entries in, one transmission
        # out.
        var_g = self.var_g
        for j, t0 in out_first.items():
            for t in range(t0, H):
                queue_rows(into_out.get((j, t), []), var_g.get((j, t - 1)),
                           [self.var_w[(j, t)]], var_g.get((j, t)),
                           cfg.b_out)

        # CSC by a stable sort on the column: rows were emitted in
        # increasing order and no (row, col) pair repeats, so each
        # column's row indices come out sorted.
        col = np.asarray(cols, dtype=np.int64)
        order = np.argsort(col, kind="stable")
        self.indices = np.asarray(rows, dtype=np.int64)[order]
        self.data = np.asarray(vals, dtype=np.float64)[order]
        self.indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(col, minlength=n_var))))
        self.row_lb = np.asarray(lb)
        self.row_ub = np.asarray(ub)
        self.col_lb = np.zeros(n_var)
        self.col_ub = upper
        self._built = True

    # -- solving ----------------------------------------------------------------

    def solve(self, extract_schedule: bool = False) -> OptResult:
        """Solve the model to proven optimality.

        Without ``extract_schedule`` the LP relaxation goes first: when
        every column of its optimal vertex lies within
        :data:`INTEGRALITY_TOL` of an integer, that vertex is an optimal
        integer solution and is kept; otherwise the integer program
        runs.  The vertex may be another optimum than the integer
        program's, so ``accepted_pids`` may differ between the two, but
        not the optimal benefit.  ``extract_schedule=True`` always runs
        the integer program, so the schedule it decodes is the one the
        theory replays were recorded against.
        """
        if not self.trace.packets:
            return OptResult(benefit=0.0, n_delivered=0)
        if extract_schedule and self.free_drain:
            # Free drain leaves deliveries past the horizon unscheduled:
            # rebuild with forced drain so the schedule holds them all.
            self.free_drain = False
            self.horizon = default_horizon(self.trace, self.config)
            self._built = False
        self.build()
        arrays = (self.objective, self.indptr, self.indices, self.data,
                  self.row_lb, self.row_ub, self.col_lb, self.col_ub)
        x = None if extract_schedule else lp(*arrays)
        if x is None or np.abs(x - np.rint(x)).max() > INTEGRALITY_TOL:
            # Look ``milp`` up in the defining module at call time, so
            # each model solves through its own module's name
            # (perfbench/tracer.py wraps both).
            x = sys.modules[type(self).__module__].milp(*arrays)
        chosen = [p for idx, p in enumerate(self.trace.packets)
                  if x[idx] > 0.5]
        result = OptResult(
            benefit=sequential_sum(p.value for p in chosen),
            n_delivered=len(chosen),
            accepted_pids=[p.pid for p in chosen],
        )
        if extract_schedule:
            result.departures = sorted(
                (t, s, i, j) for (i, j, t, s), v in self.var_exit.items()
                if x[v] > 0.5
            )
            result.transmissions = sorted(
                (t, j) for (j, t), v in self.var_w.items() if x[v] > 0.5
            )
            self._decode_stage(x, result)
        return result
