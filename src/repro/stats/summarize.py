"""Summary statistics over per-seed metric series.

The shared aggregation core of the replication subsystem:
:func:`collect_series` turns a scenario run's per-seed rows and metrics
table into ordered ``(policy, metric) -> [values]`` series, and
:func:`build_summary_rows` reduces each series to one summary row —
count, mean, sample stddev, standard error, normal CI bounds and
half-width, and (optionally) percentile-bootstrap bounds — in the fixed
:data:`SUMMARY_COLUMNS` schema.  :func:`summarize_artifact` applies the
same reduction to a previously written ``results/<name>/result.json``
artifact, so ``repro stats summarize`` can aggregate existing results
without re-simulating anything.

All reductions are pure functions of their inputs (the bootstrap is
seeded), and every non-finite statistic is serialized as ``None`` —
summary artifacts stay strict JSON and byte-reproducible.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.ratio import ratio_series
from ..scenarios.runner import row_opt_bounds
from ..scenarios.spec import ScenarioSpec
from .ci import bootstrap_interval, normal_interval
from .welford import Welford

#: Column schema of one summary row (the order ``summary.csv`` uses).
#: Documented column-by-column in ``docs/statistics.md`` (a docs
#: consistency test enforces the pairing, like the scenario catalog's).
SUMMARY_COLUMNS = (
    "policy",
    "metric",
    "n",
    "n_undefined",
    "mean",
    "std",
    "sem",
    "ci_lo",
    "ci_hi",
    "half_width",
    "boot_lo",
    "boot_hi",
)

#: Bump when the summary artifact schema changes (consumers check this).
SUMMARY_VERSION = 1

Series = Dict[Tuple[str, str], List[Optional[float]]]


def _finite_or_none(x: float, digits: int = 6) -> Optional[float]:
    return round(x, digits) if math.isfinite(x) else None


def collect_series(
    rows: Sequence[Mapping[str, object]],
    metrics: Sequence[Mapping[str, object]],
    labels: Sequence[str],
    metric_names: Sequence[str],
    include_opt: bool,
    *,
    benefits: Optional[Mapping[str, Sequence[float]]] = None,
    opt_bounds: Optional[Sequence[Tuple[float, float]]] = None,
) -> Series:
    """Ordered per-(policy, metric) value series from run tables.

    ``benefit`` comes from the per-seed benefit rows (it is always
    present, also for OPT); the remaining metrics come from the
    per-(seed, policy) metrics table.  When OPT ran, each policy's
    :func:`~repro.analysis.ratio.ratio_series` against the rows' OPT
    brackets follows: ``ratio``, or ``ratio_lo`` and ``ratio_hi`` when
    any bracket is open (None marks a seed whose ratio is unbounded).
    Ordering is deterministic: policies in spec order, OPT last,
    metrics in spec order with ``benefit`` first, ratios last.

    The rows round benefits to 6 digits.  A run that still holds its
    unrounded per-seed ``benefits`` (per policy label) and
    ``opt_bounds`` passes both, and the benefit and ratio series are
    built from them instead (see :class:`~repro.scenarios.runner.ScenarioRun`).
    """
    if benefits is None:
        benefits = {label: [float(r[label]) for r in rows]
                    for label in labels}
        opt_bounds = row_opt_bounds(rows) if include_opt else None
    all_labels = list(labels) + (["OPT"] if include_opt else [])
    names = ["benefit"] + [m for m in metric_names if m != "benefit"]
    series: Series = {}
    for label in labels:
        series[(label, "benefit")] = list(benefits[label])
    if include_opt:
        series[("OPT", "benefit")] = [hi for _, hi in opt_bounds]
    by_policy: Dict[str, List[Mapping[str, object]]] = {}
    for m in metrics:
        by_policy.setdefault(str(m["policy"]), []).append(m)
    for label in all_labels:
        for name in names[1:]:
            values = [m.get(name) for m in by_policy.get(label, [])]
            # OPT rows only carry benefit; skip all-missing series.
            if not values or any(v is None for v in values):
                continue
            series[(label, name)] = [float(v) for v in values]
    if include_opt:
        for label in labels:
            for name, ratios in ratio_series(
                    opt_bounds, series[(label, "benefit")]).items():
                series[(label, name)] = ratios
    return series


def build_summary_rows(
    series: Series,
    confidence: float = 0.95,
    bootstrap: int = 0,
    bootstrap_seed: int = 0,
) -> List[Dict[str, object]]:
    """One :data:`SUMMARY_COLUMNS` row per (policy, metric) series.

    ``None`` entries in a series (unbounded per-seed ratios) are
    excluded from every statistic and counted in ``n_undefined``.
    Bootstrap bounds are computed only when ``bootstrap > 0``; the
    bootstrap seed is salted per series position so distinct rows use
    distinct (but reproducible) resampling streams.
    """
    out: List[Dict[str, object]] = []
    for idx, ((policy, metric), values) in enumerate(series.items()):
        finite = [v for v in values if v is not None]
        acc = Welford.from_values(finite)
        lo, hi = normal_interval(acc.mean, acc.std, acc.n, confidence)
        hw = (acc.mean - lo) if math.isfinite(lo) else float("nan")
        row: Dict[str, object] = {
            "policy": policy,
            "metric": metric,
            "n": acc.n,
            "n_undefined": len(values) - len(finite),
            "mean": _finite_or_none(acc.mean) if finite else None,
            "std": _finite_or_none(acc.std),
            "sem": _finite_or_none(acc.sem),
            "ci_lo": _finite_or_none(lo),
            "ci_hi": _finite_or_none(hi),
            "half_width": _finite_or_none(hw),
            "boot_lo": None,
            "boot_hi": None,
        }
        if bootstrap > 0 and acc.n >= 2:
            blo, bhi = bootstrap_interval(
                finite, confidence=confidence, resamples=bootstrap,
                seed=bootstrap_seed + idx,
            )
            row["boot_lo"] = _finite_or_none(blo)
            row["boot_hi"] = _finite_or_none(bhi)
        out.append(row)
    return out


# --------------------------------------------------------------------------
# Summarizing existing result artifacts
# --------------------------------------------------------------------------

def load_artifact(target: str, results_root: str = "results") -> Dict:
    """Load a scenario result artifact by name, directory, or file path.

    ``target`` may be a registered-style scenario name (resolved to
    ``<results_root>/<name>/result.json``), a directory containing
    ``result.json``, or a path to the JSON file itself.
    """
    candidates = [
        target,
        os.path.join(target, "result.json"),
        os.path.join(results_root, target, "result.json"),
    ]
    for path in candidates:
        if os.path.isfile(path):
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
    raise FileNotFoundError(
        f"no result artifact for {target!r} (tried: {candidates})"
    )


def summarize_artifact(
    artifact: Mapping[str, object],
    confidence: Optional[float] = None,
    bootstrap: Optional[int] = None,
    bootstrap_seed: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Summary rows for a written ``result.json`` artifact.

    Statistical parameters default to the artifact's own ``replicates``
    block when the recorded spec has one, else to 95% normal CIs with no
    bootstrap.  Re-summarizing a replicated run's ``result.json`` with
    its recorded parameters reproduces its ``summary.json`` rows
    exactly when rounding the per-seed benefits to 6 digits leaves them
    unchanged (unit or integral values, say); otherwise the artifact's
    rounded rows can move a statistic's last digit.
    """
    spec = ScenarioSpec.from_dict(artifact["scenario"])
    block = dict(spec.replicates)
    if confidence is None:
        confidence = float(block.get("confidence", 0.95))
    if bootstrap is None:
        bootstrap = int(block.get("bootstrap", 0))
    if bootstrap_seed is None:
        bootstrap_seed = int(block.get("bootstrap_seed", 0))
    series = collect_series(
        artifact["rows"],
        artifact["metrics"],
        spec.policy_labels(),
        spec.metrics,
        spec.include_opt,
    )
    return build_summary_rows(series, confidence=confidence,
                              bootstrap=bootstrap,
                              bootstrap_seed=bootstrap_seed)
