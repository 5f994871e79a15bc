"""Delay and occupancy reporting.

Competitive analysis is about *benefit*, but a switch operator also
cares about delivery delay and buffer occupancy.  These helpers turn a
run's transmit log (``record=True``) and a metrics recorder's per-slot
series (:class:`~repro.obs.InMemoryRecorder` with ``every_k=1``) into
report rows and compact ASCII sparklines.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..simulation.results import SimulationResult
from ..traffic.trace import Trace

_SPARK = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render a numeric series as a one-line ASCII sparkline.

    The series is resampled to ``width`` buckets (max within bucket)
    and mapped onto a 10-level character ramp.
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        bucket = len(vals) / width
        vals = [
            max(vals[int(k * bucket): max(int(k * bucket) + 1,
                                          int((k + 1) * bucket))])
            for k in range(width)
        ]
    top = max(vals)
    if top <= 0:
        return _SPARK[0] * len(vals)
    out = []
    for v in vals:
        level = int(v / top * (len(_SPARK) - 1) + 0.5)
        out.append(_SPARK[max(0, min(level, len(_SPARK) - 1))])
    return "".join(out)


def occupancy_report(series: Sequence[Sequence[int]]) -> str:
    """Sparkline report of one run's buffer occupancy over time, from a
    recorder's per-slot ``series`` (rows laid out as
    :data:`~repro.obs.SERIES_FIELDS`: slot, lane, voq, cross, out, ...)."""
    if not series:
        return ("(no occupancy series recorded; run with "
                "metrics=InMemoryRecorder(every_k=1))")
    voq = [row[2] for row in series]
    cross = [row[3] for row in series]
    out = [row[4] for row in series]
    lines = [
        f"occupancy over {len(voq)} slots (peak in parentheses):",
        f"  VOQs  ({max(voq):4d}) |{sparkline(voq)}|",
    ]
    if any(cross):
        lines.append(f"  cross ({max(cross):4d}) |{sparkline(cross)}|")
    lines.append(f"  out   ({max(out):4d}) |{sparkline(out)}|")
    return "\n".join(lines)


def delay_rows(
    results: Dict[str, SimulationResult], trace: Trace
) -> List[Dict]:
    """Delay-statistics rows (one per named recorded result)."""
    rows = []
    for name, res in results.items():
        stats = res.delay_stats(trace)
        rows.append(
            {
                "policy": name,
                "delivered": stats["n"],
                "mean delay": round(stats["mean"], 2),
                "p50": stats["p50"],
                "p99": stats["p99"],
                "max": stats["max"],
            }
        )
    return rows
