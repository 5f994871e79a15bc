"""Experiment harness: ratio measurements, tables, efficiency, latency.

Parameter grids (β, (β, α), speedup, B(C)) are not built here: each is
a list of scenario specs run through one executor call by
:func:`repro.scenarios.run_scenarios`.
"""

from .ratio import (
    RatioMeasurement,
    measure_cioq_ratio,
    measure_crossbar_ratio,
    per_seed_ratios,
    ratio_of,
    ratio_series,
)
from .report import (
    csv_table,
    format_mean_ci,
    format_summary_table,
    format_table,
    print_table,
)
from .efficiency import (
    compare_unit_matching_cost,
    compare_weighted_matching_cost,
    efficiency_scaling_table,
    random_occupancy,
    random_weights,
)
from .latency import delay_rows, occupancy_report, sparkline

__all__ = [
    "RatioMeasurement",
    "measure_cioq_ratio",
    "measure_crossbar_ratio",
    "per_seed_ratios",
    "ratio_of",
    "ratio_series",
    "csv_table",
    "format_mean_ci",
    "format_summary_table",
    "format_table",
    "print_table",
    "compare_unit_matching_cost",
    "compare_weighted_matching_cost",
    "efficiency_scaling_table",
    "random_occupancy",
    "random_weights",
    "delay_rows",
    "occupancy_report",
    "sparkline",
]
