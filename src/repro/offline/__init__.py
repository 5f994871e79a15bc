"""Offline optimum substrate: exact OPT and bounds for both switch models."""

from .timegraph import CIOQOptModel, OptResult, default_horizon
from .crossbar_timegraph import CrossbarOptModel
from .bruteforce import bruteforce_cioq_opt_unit
from .decompose import OptSchedule, PacketItinerary, decompose_cioq_opt
from .bounds import bounds_opt, capacity_upper_bound, greedy_lower_bound
from .windowed import (
    subtrace,
    window_boundaries,
    window_drain_slots,
    windowed_opt,
)
from .opt import (
    OPT_MODES,
    cioq_opt,
    crossbar_opt,
    select_opt_mode,
    solve_opt,
)

__all__ = [
    "CIOQOptModel",
    "OptResult",
    "default_horizon",
    "CrossbarOptModel",
    "bruteforce_cioq_opt_unit",
    "OptSchedule",
    "PacketItinerary",
    "decompose_cioq_opt",
    "bounds_opt",
    "capacity_upper_bound",
    "greedy_lower_bound",
    "subtrace",
    "window_boundaries",
    "window_drain_slots",
    "windowed_opt",
    "OPT_MODES",
    "cioq_opt",
    "crossbar_opt",
    "select_opt_mode",
    "solve_opt",
]
