"""Offline optimum substrate: exact OPT and bounds for both switch models."""

from .timegraph import CIOQOptModel, OptResult, default_horizon
from .crossbar_timegraph import CrossbarOptModel
from .bruteforce import bruteforce_cioq_opt_unit
from .bounds import bounds_opt, capacity_upper_bound, greedy_lower_bound
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
    "bounds_opt",
    "capacity_upper_bound",
    "greedy_lower_bound",
    "OPT_MODES",
    "cioq_opt",
    "crossbar_opt",
    "select_opt_mode",
    "solve_opt",
]
