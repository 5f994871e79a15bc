"""Experiment harness: ratio measurements, sweeps, tables, efficiency."""

from .ratio import (
    RatioMeasurement,
    RatioSummary,
    measure_cioq_ratio,
    measure_crossbar_ratio,
    per_seed_ratios,
    ratio_of,
    summarize,
    worst,
)
from .report import (
    csv_table,
    format_mean_ci,
    format_summary_table,
    format_table,
    print_table,
)
from .sweep import (
    beta_sweep_pg,
    buffer_sweep_crossbar,
    grid,
    speedup_sweep,
    threshold_sweep_cpg,
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
    "RatioSummary",
    "measure_cioq_ratio",
    "measure_crossbar_ratio",
    "per_seed_ratios",
    "ratio_of",
    "summarize",
    "worst",
    "csv_table",
    "format_mean_ci",
    "format_summary_table",
    "format_table",
    "print_table",
    "beta_sweep_pg",
    "buffer_sweep_crossbar",
    "grid",
    "speedup_sweep",
    "threshold_sweep_cpg",
    "compare_unit_matching_cost",
    "compare_weighted_matching_cost",
    "efficiency_scaling_table",
    "random_occupancy",
    "random_weights",
    "delay_rows",
    "occupancy_report",
    "sparkline",
]
