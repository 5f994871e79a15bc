"""Facade over the offline-optimum solvers.

`cioq_opt` / `crossbar_opt` are what experiments call: the offline
optimum benefit (and optionally the extracted schedule) for a given
trace and switch configuration.  Three modes (see
``docs/offline_opt.md``):

* ``mode="exact"`` (default) — the time-expanded MILP of
  :class:`~repro.offline.timegraph.CIOQOptModel` /
  :class:`~repro.offline.crossbar_timegraph.CrossbarOptModel`.
* ``mode="bounds"`` — near-linear greedy lower / capacity-relaxation
  upper bracket (:func:`~repro.offline.bounds.bounds_opt`).
* ``mode="auto"`` — exact or bounds, picked from the estimated exact
  model size (:func:`select_opt_mode`).
"""

from __future__ import annotations

from typing import Optional

from ..switch.config import SwitchConfig
from ..traffic.trace import Trace
from .bounds import bounds_opt
from .crossbar_timegraph import CrossbarOptModel
from .timegraph import CIOQOptModel, OptResult, default_horizon

#: Recognised ``mode=`` values.
OPT_MODES = ("exact", "bounds", "auto")

#: Rough cap on exact-model size (active pairs x horizon x speedup —
#: a proxy for the departure-variable count) below which the exact MILP
#: solves in acceptable time.  Calibrated against measured HiGHS solve
#: times: ~8k proxy units solve in seconds, ~30k in about a minute, and
#: growth beyond that is strongly superlinear.
AUTO_EXACT_BUDGET = 30_000


def check_opt_mode(mode: str) -> None:
    """Reject a mode that is not one of :data:`OPT_MODES`."""
    if mode not in OPT_MODES:
        raise ValueError(f"unknown opt mode {mode!r}; expected {OPT_MODES}")


def _exact_size_proxy(trace: Trace, config: SwitchConfig,
                      horizon: int) -> int:
    pairs = len({(p.src, p.dst) for p in trace.packets})
    return pairs * horizon * config.speedup


def select_opt_mode(trace: Trace, config: SwitchConfig) -> str:
    """Resolve ``mode="auto"``: deterministic in (trace, config).

    ``"exact"`` while the estimated model size fits
    :data:`AUTO_EXACT_BUDGET`, ``"bounds"`` otherwise.
    """
    if _exact_size_proxy(
        trace, config, default_horizon(trace, config)
    ) <= AUTO_EXACT_BUDGET:
        return "exact"
    return "bounds"


def solve_opt(
    trace: Trace,
    config: SwitchConfig,
    model: str = "cioq",
    mode: str = "exact",
    horizon: Optional[int] = None,
    extract_schedule: bool = False,
) -> OptResult:
    """Offline optimum (or certified bracket) for either switch model."""
    check_opt_mode(mode)
    if model not in ("cioq", "crossbar"):
        raise ValueError(f"unknown offline model {model!r}")
    if mode == "auto":
        mode = select_opt_mode(trace, config)
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
    return bounds_opt(trace, config, model=model)


def cioq_opt(
    trace: Trace,
    config: SwitchConfig,
    horizon: Optional[int] = None,
    extract_schedule: bool = False,
    mode: str = "exact",
) -> OptResult:
    """Offline optimum benefit for a CIOQ instance (exact by default)."""
    return solve_opt(trace, config, model="cioq", mode=mode,
                     horizon=horizon, extract_schedule=extract_schedule)


def crossbar_opt(
    trace: Trace,
    config: SwitchConfig,
    horizon: Optional[int] = None,
    extract_schedule: bool = False,
    mode: str = "exact",
) -> OptResult:
    """Offline optimum benefit for a buffered crossbar instance.

    Note: the crossbar optimum is always >= the CIOQ optimum on the same
    trace and capacities (crosspoint buffers only add capability), a
    relation the integration tests exercise.
    """
    return solve_opt(trace, config, model="crossbar", mode=mode,
                     horizon=horizon, extract_schedule=extract_schedule)
