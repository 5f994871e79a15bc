"""Cheap certified bounds on the offline optimum.

This module is the fast end of the exactness/speed trade-off: both
bounds run in near-linear time in the number of packets and never build
a time-expanded model, so they scale to horizons (10^5-10^6 slots) and
port counts (N = 64+) where the exact MILP is not even constructible.

* :func:`greedy_lower_bound` — run the paper's greedy online policies
  (GM and PG for CIOQ, CGU and CPG for the crossbar) over the trace and
  take the best benefit.  Any feasible schedule is a lower bound on OPT,
  and the primal-dual analyses behind Theorems 1-4 guarantee the gap is
  at most the policy's competitive ratio (a constant), so the bound is
  never vacuous.
* :func:`capacity_upper_bound` — relax the switch to independent
  single-port servers.  Any feasible schedule transmits at most one
  packet per output per slot and departs at most ``speedup`` packets per
  input per slot, so the best value subset that each port could serve in
  isolation (a transversal-matroid optimum, solved exactly by a greedy
  latest-slot assignment) upper-bounds OPT.  The final bound is the
  minimum over the output-side sum, the input-side sum, and the total
  trace value.

:func:`bounds_opt` packages both into an :class:`OptResult` with
``mode="bounds"`` and ``benefit = opt_upper`` (the conservative
competitive-ratio denominator).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..switch.config import SwitchConfig
from ..switch.packet import Packet
from ..traffic.trace import Trace
from .timegraph import OptResult, default_horizon

#: Offline models the bound solvers understand.
_MODELS = ("cioq", "crossbar")


def _check_model(model: str) -> None:
    if model not in _MODELS:
        raise ValueError(f"unknown offline model {model!r}; expected {_MODELS}")


def greedy_lower_bound(
    trace: Trace,
    config: SwitchConfig,
    model: str = "cioq",
    stop_at: Optional[float] = None,
) -> float:
    """Best benefit over the paper's greedy policies — a certified OPT
    lower bound (any feasible schedule's value is at most OPT's).

    ``stop_at`` is an optional certified upper bound on OPT: once a
    policy's benefit reaches it, later policies cannot tighten the
    bracket and are skipped (halves the cost at sub-saturation loads,
    where the first greedy policy already delivers everything the
    capacity bound allows).
    """
    _check_model(model)
    # Deferred imports: offline must stay importable without dragging in
    # the simulation engine (and its backend registry) at module load.
    from ..simulation.engine import run_cioq, run_crossbar

    if model == "cioq":
        from ..core import GMPolicy, PGPolicy

        factories = (GMPolicy, PGPolicy)
        run = run_cioq
    else:
        from ..core import CGUPolicy, CPGPolicy

        factories = (CGUPolicy, CPGPolicy)
        run = run_crossbar
    best = 0.0
    for factory in factories:
        best = max(best, run(factory(), config, trace).benefit)
        # A lower bound meeting the caller's certified upper bound
        # cannot improve further — skip the remaining policy runs.
        # The policy order is fixed, so results stay deterministic.
        if stop_at is not None and best >= stop_at:
            break
    return best


def _server_bound(
    packets: List[Packet],
    horizon: int,
    rate: int,
) -> float:
    """Maximum value a single server can deliver from ``packets``.

    The server serves at most ``rate`` packets per slot, a packet is
    available from its arrival slot, and everything must be served
    before ``horizon``.  Feasible subsets form a transversal matroid
    (packets vs. slot-capacity units), so the greedy that scans packets
    in descending value and assigns each to the *earliest* slot with
    spare capacity at or after its arrival is exact — it is the time
    reversal of the textbook latest-slot-before-deadline rule for unit
    jobs with deadlines.  Union-find over slots ("next slot with spare
    capacity, looking right") keeps it near-linear.
    """
    if not packets:
        return 0.0
    # parent[t] = candidate slot with spare capacity at or above t;
    # slot `horizon` is the "no capacity left" sentinel.
    parent = list(range(horizon + 1))
    spare = [rate] * horizon

    def find(t: int) -> int:
        root = t
        while parent[root] != root:
            root = parent[root]
        while parent[t] != root:
            parent[t], t = root, parent[t]
        return root

    total = 0.0
    order = sorted(range(len(packets)),
                   key=lambda k: (-packets[k].value, packets[k].pid))
    for k in order:
        p = packets[k]
        slot = find(p.arrival)
        if slot >= horizon:
            continue  # no capacity left at or after the arrival: reject
        total += p.value
        spare[slot] -= 1
        if spare[slot] == 0:
            parent[slot] = slot + 1
    return total


def capacity_upper_bound(
    trace: Trace,
    config: SwitchConfig,
    horizon: Optional[int] = None,
) -> float:
    """Port-capacity relaxation upper bound on OPT (both switch models).

    Valid for CIOQ and buffered crossbar alike: every feasible schedule
    satisfies the per-output transmission constraint (<= 1 packet per
    slot) and the per-input departure constraint (<= speedup packets per
    slot), so OPT is at most each port-wise relaxation optimum.
    """
    if horizon is None:
        horizon = default_horizon(trace, config)
    by_out: Dict[int, List[Packet]] = {}
    by_in: Dict[int, List[Packet]] = {}
    for p in trace.packets:
        by_out.setdefault(p.dst, []).append(p)
        by_in.setdefault(p.src, []).append(p)
    out_sum = sum(_server_bound(ps, horizon, 1) for ps in by_out.values())
    in_sum = sum(
        _server_bound(ps, horizon, config.speedup) for ps in by_in.values()
    )
    return min(out_sum, in_sum, trace.total_value)


def bounds_opt(
    trace: Trace,
    config: SwitchConfig,
    model: str = "cioq",
    horizon: Optional[int] = None,
) -> OptResult:
    """Certified ``(greedy lower, capacity upper)`` bracket on OPT."""
    _check_model(model)
    if not trace.packets:
        return OptResult(benefit=0.0, n_delivered=0, mode="bounds",
                         opt_lower=0.0, opt_upper=0.0)
    # Upper first: it is near-free and lets the greedy leg stop as soon
    # as a policy provably cannot be improved upon.
    upper = capacity_upper_bound(trace, config, horizon=horizon)
    lower = greedy_lower_bound(trace, config, model=model, stop_at=upper)
    # Both bounds are certified, so lower <= OPT <= upper in exact
    # arithmetic; clamp against float-summation noise only.
    upper = max(upper, lower)
    return OptResult(
        benefit=upper,
        n_delivered=0,
        mode="bounds",
        opt_lower=lower,
        opt_upper=upper,
    )
