"""Windowed offline optimum with certified stitched bounds.

The exact time-expanded MILP (:mod:`repro.offline.timegraph`) scales
superlinearly with the horizon, and its safe drain period
(:func:`repro.simulation.engine.drain_bound`, O(N^2 * b) slots) is added
to *every* solve — at N = 16 the drain alone is 1345 slots, so the exact
model is unbuildable long before the arrival horizon gets interesting.
This module trades exactness for a certified bracket by decomposing the
arrival timeline into disjoint windows of ``window`` slots and solving
each window as a fresh, small instance with the *same* exact machinery:

* **Upper bound** — each window is solved with a free drain period after
  its last arrival.  Partition OPT's accepted packets by arrival window;
  the restriction of OPT's schedule to one window's packets is feasible
  for that window's stand-alone instance (all constraints are packing
  constraints), so ``sum_k OPT(window_k, free drain) >= OPT``.
* **Lower bound** — each non-final window is solved with the horizon
  clamped to the window end (forced drain).  The per-window schedules
  occupy disjoint time ranges and start from empty buffers, so their
  union is a feasible global schedule: ``sum_k OPT(window_k, forced
  drain) <= OPT``.  The final window keeps its free drain (there is
  nothing after it), so its lower and upper contributions coincide.

With a single window the solver delegates to the exact model verbatim
(identical horizon, identical MILP), so ``window >= trace.n_slots``
reproduces the exact optimum bit for bit — the anchor the differential
test matrix (``tests/test_opt_equivalence.py``) pins.

Per-window drain: windows use :func:`window_drain_slots`, a drain period
that is O(N * b) instead of the engine's O(N^2 * b) worst-case bound.

**Drain lemma.**  With no further arrivals, any feasible buffer state of
either switch model can be fully delivered within ``Delta + b_out + 1``
slots, where ``Delta <= max(n_in, n_out) * (b_in + b_cross)`` bounds the
maximum number of buffered packets incident to any one port.  Proof
sketch: form the bipartite multigraph with one edge (i, j) per buffered
packet still short of output queue j.  By Koenig's edge-coloring theorem
it decomposes into ``Delta`` matchings; schedule one matching per slot,
moving each scheduled packet one stage toward (and into) its output
queue — for the crossbar a VOQ packet traverses the crosspoint and the
output subphase within the same cycle when space permits, else the
crosspoint entry is drained first, so each scheduled edge still lands
one (i, j) packet in Q_j.  Using at most one entry per output per slot,
an output queue never exceeds its occupancy bound (it transmits every
slot it is non-empty), so no entry is ever blocked.  After ``Delta``
slots every packet sits in its output queue; at most ``b_out`` more
slots flush the queues.  The equivalence tests cross-validate the lemma
against the engine's conservative bound on every differential instance.
"""

from __future__ import annotations

from typing import List, Tuple

from ..switch.config import SwitchConfig
from ..switch.packet import Packet
from ..traffic.trace import Trace
from .crossbar_timegraph import CrossbarOptModel
from .timegraph import CIOQOptModel, OptResult

_MODEL_CLASSES = {"cioq": CIOQOptModel, "crossbar": CrossbarOptModel}


def window_drain_slots(config: SwitchConfig) -> int:
    """Drain period used for per-window solves: O(N * b) slots.

    ``max(n_in, n_out) * (b_in + b_cross) + b_out + 1`` always suffices
    to empty the switch with no further arrivals (Koenig edge-coloring
    argument; see the module docstring), versus the engine's
    conservative O(N^2 * b) :func:`~repro.simulation.engine.drain_bound`.
    """
    return (
        max(config.n_in, config.n_out) * (config.b_in + config.b_cross)
        + config.b_out
        + 1
    )


def subtrace(trace: Trace, start: int, stop: int) -> Trace:
    """Packets with ``start <= arrival < stop``, re-based to slot 0."""
    packets = [
        Packet(p.pid, p.value, p.arrival - start, p.src, p.dst)
        for p in trace.packets
        if start <= p.arrival < stop
    ]
    return Trace(packets, trace.n_in, trace.n_out,
                 name=f"{trace.name}[{start}:{stop})",
                 n_slots=max(0, min(stop, trace.n_slots) - start))


def window_boundaries(n_slots: int, window: int) -> List[Tuple[int, int]]:
    """Disjoint ``[start, stop)`` arrival windows covering ``n_slots``."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return [(a, min(a + window, n_slots)) for a in range(0, n_slots, window)]


def windowed_opt(
    trace: Trace,
    config: SwitchConfig,
    window: int,
    model: str = "cioq",
    extract_schedule: bool = False,
) -> OptResult:
    """Certified OPT bracket from per-window exact solves.

    Returns an :class:`OptResult` with ``mode="windowed"``,
    ``benefit = opt_upper`` and the stitched ``(opt_lower, opt_upper)``
    bracket.  With ``window >= trace.n_slots`` the result is the exact
    optimum, computed by the exact model with its default horizon.
    """
    if model not in _MODEL_CLASSES:
        raise ValueError(
            f"unknown offline model {model!r}; expected {tuple(_MODEL_CLASSES)}"
        )
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if extract_schedule:
        raise ValueError(
            "schedule extraction is only supported in exact mode"
        )
    cls = _MODEL_CLASSES[model]
    if not trace.packets:
        return OptResult(benefit=0.0, n_delivered=0, mode="windowed",
                         opt_lower=0.0, opt_upper=0.0, window=window,
                         n_windows=0)
    if window >= trace.n_slots:
        # Single window: the exact model verbatim (same horizon, same
        # MILP), so the result matches exact mode bit for bit.
        exact = cls(trace, config).solve()
        return OptResult(
            benefit=exact.benefit,
            n_delivered=exact.n_delivered,
            accepted_pids=exact.accepted_pids,
            mode="windowed",
            opt_lower=exact.benefit,
            opt_upper=exact.benefit,
            window=window,
            n_windows=1,
        )

    drain = window_drain_slots(config)
    bounds = window_boundaries(trace.n_slots, window)
    lower = 0.0
    upper = 0.0
    n_delivered = 0
    for start, stop in bounds:
        sub = subtrace(trace, start, stop)
        if not sub.packets:
            continue
        # Free-drain solve: certified per-window upper contribution.
        up = cls(sub, config, horizon=sub.n_slots + drain).solve()
        upper += up.benefit
        n_delivered += up.n_delivered
        if stop == trace.n_slots:
            # Final window: nothing follows, the free-drain schedule is
            # globally feasible as-is.
            lower += up.benefit
        else:
            # Forced drain by the window end: the schedule stays inside
            # [start, stop) in absolute time, so per-window schedules
            # union into one feasible global schedule.
            low = cls(sub, config, horizon=stop - start).solve()
            lower += low.benefit
    # Intersect with the near-free greedy/capacity bracket: both
    # brackets are certified, so their intersection is too, and the
    # stitched bracket can only tighten (boundary losses hurt the
    # stitched lower end under saturation; the capacity relaxation is
    # often the tighter upper end there).
    from .bounds import bounds_opt

    cheap = bounds_opt(trace, config, model=model)
    lower = max(lower, cheap.opt_lower)
    upper = min(upper, cheap.opt_upper)
    upper = max(upper, lower)
    return OptResult(
        benefit=upper,
        n_delivered=n_delivered,
        mode="windowed",
        opt_lower=lower,
        opt_upper=upper,
        window=window,
        n_windows=len(bounds),
    )
