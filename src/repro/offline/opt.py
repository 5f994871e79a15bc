"""Facade over the offline-optimum solvers.

`cioq_opt` / `crossbar_opt` are what experiments call: the offline
optimum benefit (and optionally the extracted schedule) for a given
trace and switch configuration.  Three modes trade exactness for scale
(see ``docs/offline_opt.md``):

* ``mode="exact"`` (default) — the time-expanded MILP of
  :class:`~repro.offline.timegraph.CIOQOptModel` /
  :class:`~repro.offline.crossbar_timegraph.CrossbarOptModel`.
* ``mode="windowed"`` — per-window exact solves stitched into a
  certified ``(opt_lower, opt_upper)`` bracket
  (:func:`~repro.offline.windowed.windowed_opt`).  With
  ``window >= trace.n_slots`` this reproduces exact mode bit for bit.
* ``mode="bounds"`` — near-linear greedy lower / capacity-relaxation
  upper bracket (:func:`~repro.offline.bounds.bounds_opt`).
* ``mode="auto"`` — pick one of the above from the estimated exact
  model size (:func:`select_opt_mode`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..switch.config import SwitchConfig
from ..traffic.trace import Trace
from .bounds import bounds_opt
from .crossbar_timegraph import CrossbarOptModel
from .timegraph import CIOQOptModel, OptResult
from .windowed import window_drain_slots, windowed_opt

#: Recognised ``mode=`` values, in increasing order of approximation.
OPT_MODES = ("exact", "windowed", "bounds", "auto")

#: Rough cap on exact-model size (active pairs x horizon x speedup —
#: a proxy for the departure-variable count) below which the exact MILP
#: solves in acceptable time.  Calibrated against measured HiGHS solve
#: times: ~8k proxy units solve in seconds, ~30k in about a minute, and
#: growth beyond that is strongly superlinear.
AUTO_EXACT_BUDGET = 30_000

#: Per-window size budget for auto-selected windowed mode, and a cap on
#: the number of windows auto mode is willing to stitch before falling
#: back to the near-linear bounds mode.
AUTO_WINDOW_BUDGET = 12_000
AUTO_MAX_WINDOWS = 24
AUTO_MIN_WINDOW = 4


def check_opt_mode(mode: str, window: Optional[int]) -> None:
    """Reject a ``(mode, window)`` pair that no solver accepts.

    The mode must be one of :data:`OPT_MODES`, and ``windowed`` needs a
    window of at least one arrival slot.
    """
    if mode not in OPT_MODES:
        raise ValueError(f"unknown opt mode {mode!r}; expected {OPT_MODES}")
    if mode == "windowed" and (window is None or window < 1):
        raise ValueError(
            f"windowed opt mode needs a window >= 1, got {window}"
        )


def _exact_size_proxy(trace: Trace, config: SwitchConfig,
                      horizon: int) -> int:
    pairs = len({(p.src, p.dst) for p in trace.packets})
    return pairs * horizon * config.speedup


def select_opt_mode(
    trace: Trace,
    config: SwitchConfig,
    window: Optional[int] = None,
) -> Tuple[str, Optional[int]]:
    """Resolve ``mode="auto"``: deterministic in (trace, config, window).

    Returns ``(mode, window)`` with ``mode`` one of ``exact``,
    ``windowed`` or ``bounds``.  Exact is chosen while the estimated
    model size fits :data:`AUTO_EXACT_BUDGET`; windowed while a window
    of at least :data:`AUTO_MIN_WINDOW` slots keeps per-window models
    inside :data:`AUTO_WINDOW_BUDGET` with at most
    :data:`AUTO_MAX_WINDOWS` windows; bounds otherwise.
    """
    from .timegraph import default_horizon

    if not trace.packets:
        return "exact", None
    if _exact_size_proxy(
        trace, config, default_horizon(trace, config)
    ) <= AUTO_EXACT_BUDGET:
        return "exact", None
    pairs = len({(p.src, p.dst) for p in trace.packets})
    drain = window_drain_slots(config)
    if window is None:
        window = AUTO_WINDOW_BUDGET // (pairs * config.speedup) - drain
    if window >= AUTO_MIN_WINDOW:
        n_windows = -(-trace.n_slots // window)
        if n_windows <= AUTO_MAX_WINDOWS and _exact_size_proxy(
            trace, config, window + drain
        ) <= AUTO_WINDOW_BUDGET:
            return "windowed", window
    return "bounds", None


def solve_opt(
    trace: Trace,
    config: SwitchConfig,
    model: str = "cioq",
    mode: str = "exact",
    window: Optional[int] = None,
    horizon: Optional[int] = None,
    extract_schedule: bool = False,
) -> OptResult:
    """Offline optimum (or certified bracket) for either switch model."""
    check_opt_mode(mode, window)
    if model not in ("cioq", "crossbar"):
        raise ValueError(f"unknown offline model {model!r}")
    if mode == "auto":
        mode, window = select_opt_mode(trace, config, window=window)
    if mode == "exact":
        cls = CIOQOptModel if model == "cioq" else CrossbarOptModel
        return cls(trace, config, horizon=horizon).solve(
            extract_schedule=extract_schedule
        )
    if extract_schedule:
        raise ValueError("schedule extraction is only supported in exact mode")
    if horizon is not None:
        raise ValueError(
            "explicit horizons are only supported in exact mode"
        )
    if mode == "windowed":
        return windowed_opt(trace, config, window=window, model=model)
    return bounds_opt(trace, config, model=model)


def cioq_opt(
    trace: Trace,
    config: SwitchConfig,
    horizon: Optional[int] = None,
    extract_schedule: bool = False,
    mode: str = "exact",
    window: Optional[int] = None,
) -> OptResult:
    """Offline optimum benefit for a CIOQ instance (exact by default)."""
    return solve_opt(trace, config, model="cioq", mode=mode, window=window,
                     horizon=horizon, extract_schedule=extract_schedule)


def crossbar_opt(
    trace: Trace,
    config: SwitchConfig,
    horizon: Optional[int] = None,
    extract_schedule: bool = False,
    mode: str = "exact",
    window: Optional[int] = None,
) -> OptResult:
    """Offline optimum benefit for a buffered crossbar instance.

    Note: the crossbar optimum is always >= the CIOQ optimum on the same
    trace and capacities (crosspoint buffers only add capability), a
    relation the integration tests exercise.
    """
    return solve_opt(trace, config, model="crossbar", mode=mode,
                     window=window, horizon=horizon,
                     extract_schedule=extract_schedule)
