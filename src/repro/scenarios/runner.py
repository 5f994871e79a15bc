"""Scenario execution and result artifacts.

:func:`run_scenarios` turns a list of
:class:`~repro.scenarios.spec.ScenarioSpec` into
:class:`~repro.parallel.SweepPoint` units — per spec, one per (seed,
policy) plus an exact-OPT point per seed when requested — and executes
them through one :class:`~repro.parallel.SweepExecutor` call, so every
scenario and every grid of scenarios (``repro sweep``, the β, speedup
and B(C) tables) parallelizes over ``--workers`` processes and caches
on disk, with bit-identical results for any worker count.
:func:`run_scenario` is the one-spec case.

:func:`write_artifacts` persists a run under ``results/<name>/`` as

* ``result.json`` — the versioned artifact: spec, per-seed benefit
  rows, per-policy aggregates and the per-(seed, policy) metrics table
  (schema version :data:`ARTIFACT_VERSION`);
* ``result.csv`` — the metrics table as CSV for spreadsheet/pandas use;
* ``scenario.toml`` — the spec that produced the result, re-runnable
  via ``repro scenarios run --file``.

Artifacts contain no timestamps or environment data, so re-running a
scenario (serially or in parallel) reproduces the files byte for byte —
the property CI diffs.

Replicated runs (:func:`repro.stats.replicate_scenario`) reuse this
runner per seed batch and :func:`write_artifacts` for the per-seed
record, then add ``summary.json`` / ``summary.csv`` with
mean/stddev/CI rows per (policy, metric) — see ``docs/statistics.md``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .._version import __version__
from ..analysis.ratio import ratio_series
from ..analysis.report import csv_table, format_table
from ..obs import build_manifest, write_manifest
from ..parallel import SweepExecutor, SweepPoint
from ..switch.packet import sequential_sum
from ..traffic.trace import Trace
from .spec import ScenarioSpec

#: Bump when the artifact schema changes (consumers check this).
#: v2: the embedded scenario dict gained a ``replicates`` block.
#: v3: an ``opt`` block records the OPT solver mode and window; rows
#: carry ``OPT_lo``/``OPT_hi`` and aggregates carry ratio brackets when
#: the solver mode is inexact.  Windowed OPT is gone since; the block
#: keeps ``"window": null`` so v3 artifacts keep their bytes.
ARTIFACT_VERSION = 3

#: Default artifact root, relative to the working directory.
RESULTS_DIR = "results"


class SpecError(ValueError):
    """A spec whose traffic and value models drew a trace that the trace
    check refuses, such as a value model whose draws overflow to
    ``inf``: a fault of the spec's parameters, found while its traces
    are generated."""


@dataclass
class ScenarioRun:
    """Outcome of one scenario execution."""

    spec: ScenarioSpec
    #: One row per seed: seed, arrived, then one benefit column per
    #: policy label (plus OPT — and OPT_lo/OPT_hi when the OPT solver
    #: mode is inexact — when the spec asks for it).
    rows: List[Dict[str, object]]
    #: One row per policy label: mean/min/max benefit over seeds, plus
    #: mean_ratio (OPT / policy, averaged over seeds) when available.
    aggregates: List[Dict[str, object]]
    #: One row per (seed, policy): the spec's selected metrics.
    metrics: List[Dict[str, object]]
    #: OPT solver selection the run was executed with (recorded in the
    #: artifact so exact and bracketed denominators are never conflated).
    opt_mode: str = "exact"
    #: Per policy label, the per-seed benefits the rows round to 6
    #: digits, unrounded; what aggregates and summaries are built from.
    benefits: Dict[str, List[float]] = field(default_factory=dict)
    #: The per-seed certified ``(lower, upper)`` OPT brackets, unrounded
    #: (empty when OPT did not run).
    opt_bounds: List[Tuple[float, float]] = field(default_factory=list)

    def artifact(self) -> Dict[str, object]:
        """The versioned, JSON-serializable result record."""
        return {
            "artifact_version": ARTIFACT_VERSION,
            "repro_version": __version__,
            "scenario": self.spec.to_dict(),
            # Always-null window keeps v3 bytes (see ARTIFACT_VERSION).
            "opt": {"mode": self.opt_mode, "window": None},
            "rows": self.rows,
            "aggregates": self.aggregates,
            "metrics": self.metrics,
        }

    def tables(self) -> str:
        """Human-readable report (what ``repro scenarios run`` prints)."""
        spec = self.spec
        out = [
            format_table(
                self.rows,
                title=f"scenario {spec.name}: {spec.model} "
                      f"{spec.build_config().n_in}x"
                      f"{spec.build_config().n_out}, {spec.slots} slots, "
                      f"{len(spec.seeds)} seeds",
            ),
            format_table(self.aggregates, title="per-policy aggregates"),
        ]
        return "\n".join(out)


def run_scenario(
    spec: ScenarioSpec,
    executor: Optional[SweepExecutor] = None,
    opt_mode: str = "exact",
) -> ScenarioRun:
    """Execute a scenario; pure function of the spec.

    ``executor`` defaults to a serial, uncached ``SweepExecutor()``;
    pass one to set workers, a cache or metrics.  Results are
    bit-identical for any worker count and — by the kernel contract
    (see :mod:`repro.simulation.backends`) — whichever kernel the
    engine picks.

    ``opt_mode`` selects the offline-optimum solver for the per-seed
    OPT points (see :mod:`repro.offline.opt` and
    ``docs/offline_opt.md``); with an inexact mode the rows carry
    certified ``OPT_lo``/``OPT_hi`` brackets next to the conservative
    ``OPT`` column, and the aggregates report ratio brackets instead of
    an exact-looking mean ratio.
    """
    return run_scenarios([spec], executor, opt_mode)[0]


def run_scenarios(
    specs: Sequence[ScenarioSpec],
    executor: Optional[SweepExecutor] = None,
    opt_mode: str = "exact",
) -> List[ScenarioRun]:
    """Execute a grid of scenarios through one :meth:`SweepExecutor.run`.

    Every spec's traces and points are built first, in spec order, and
    the executor runs them as one batch: one worker pool, one cache
    scan, and lockstep batch groups that span the whole grid.  The
    payloads split back into one :class:`ScenarioRun` per spec, each
    equal to what :func:`run_scenario` returns for that spec alone.
    A grid over a paper parameter (β, speedup, B(C)) is a list of specs
    that differ in one policy or switch field.
    """
    ex = executor if executor is not None else SweepExecutor()
    built = [_scenario_points(spec, opt_mode) for spec in specs]
    payloads = iter(ex.run([p for _, points in built for p in points]))
    return [_scenario_run(spec, traces, payloads, opt_mode)
            for spec, (traces, _) in zip(specs, built)]


def _scenario_points(
    spec: ScenarioSpec, opt_mode: str
) -> Tuple[Dict[int, Trace], List[SweepPoint]]:
    """A spec's trace per seed and its points: per seed, one point per
    policy, then the OPT point when the spec asks for it."""
    config = spec.build_config()
    traffic = spec.build_traffic()
    factories = spec.policy_factories()

    traces = {seed: _generate(traffic, spec.slots, seed)
              for seed in spec.seeds}
    points: List[SweepPoint] = []
    for seed in spec.seeds:
        trace = traces[seed]
        for label, factory in factories:
            points.append(
                SweepPoint(model=spec.model, config=config, trace=trace,
                           policy_factory=factory, seed=seed,
                           tag={"policy": label, "seed": seed})
            )
        if spec.include_opt:
            points.append(
                SweepPoint(model=spec.model, config=config, trace=trace,
                           seed=seed, tag={"policy": "OPT", "seed": seed},
                           opt_mode=opt_mode)
            )
    return traces, points


def _generate(traffic, n_slots: int, seed: int) -> Trace:
    """``traffic``'s trace for ``seed``; the trace check's refusal is
    a :class:`SpecError` naming both models."""
    try:
        return traffic.generate(n_slots, seed=seed)
    except ValueError as exc:
        raise SpecError(
            f"seed {seed}: {traffic.name} traffic with "
            f"{traffic.value_model.name} values drew an invalid trace: "
            f"{exc}") from None


def _scenario_run(
    spec: ScenarioSpec,
    traces: Dict[int, Trace],
    payloads: Iterator[Dict[str, object]],
    opt_mode: str,
) -> ScenarioRun:
    """Fold one spec's payloads, taken from ``payloads`` in the order
    :func:`_scenario_points` built its points, into its run."""
    labels = spec.policy_labels()
    rows: List[Dict[str, object]] = []
    metrics: List[Dict[str, object]] = []
    benefits: Dict[str, List[float]] = {label: [] for label in labels}
    opt_bounds: List[Tuple[float, float]] = []
    for seed in spec.seeds:
        row: Dict[str, object] = {"seed": seed, "arrived": len(traces[seed])}
        for label in labels:
            payload = next(payloads)
            benefit = float(payload["benefit"])
            benefits[label].append(benefit)
            row[label] = round(benefit, 6)
            metric_row: Dict[str, object] = {"seed": seed, "policy": label}
            for m in spec.metrics:
                metric_row[m] = payload.get(m)
            metrics.append(metric_row)
        if spec.include_opt:
            payload = next(payloads)
            benefit = float(payload["benefit"])
            row["OPT"] = round(benefit, 6)
            lo = float(payload.get("opt_lower", benefit))
            hi = float(payload.get("opt_upper", benefit))
            opt_bounds.append((lo, hi))
            if opt_mode != "exact":
                row["OPT_lo"] = round(lo, 6)
                row["OPT_hi"] = round(hi, 6)
            metric_row = {"seed": seed, "policy": "OPT"}
            for m in spec.metrics:
                metric_row[m] = payload.get(m)
            metrics.append(metric_row)
        rows.append(row)

    aggregates = compute_aggregates(
        labels, benefits, opt_bounds if spec.include_opt else None
    )

    return ScenarioRun(spec=spec, rows=rows, aggregates=aggregates,
                       metrics=metrics, opt_mode=opt_mode,
                       benefits=benefits,
                       opt_bounds=opt_bounds)


def compute_aggregates(
    labels: List[str],
    benefits: Dict[str, List[float]],
    opt_bounds: Optional[List[Tuple[float, float]]] = None,
) -> List[Dict[str, object]]:
    """Per-policy aggregate rows over per-seed benefit lists.

    ``opt_bounds`` carries the per-seed certified ``(lower, upper)`` OPT
    brackets, whose upper end is the ``OPT`` column (None when OPT did
    not run).  Each policy's ratio aggregates are the means of its
    :func:`~repro.analysis.ratio.ratio_series`: per-seed ratios, never
    ratios of summed benefits (see ``docs/statistics.md``).  An exact
    run reports ``mean_ratio``; a run with any open bracket reports
    ``mean_ratio`` as None next to the certified bracket
    ``[mean_ratio_lo, mean_ratio_hi]`` on the true mean ratio.  Seeds
    whose ratio is unbounded are left out of the means, as the summary
    rows count them in ``n_undefined``; a mean with no finite ratio is
    None (strict JSON, no Infinity).  Shared by :func:`run_scenario`
    and the replicated runs in :mod:`repro.stats.replication`.
    """

    def _mean(ratios: List[Optional[float]]) -> Optional[float]:
        finite = [r for r in ratios if r is not None]
        return (round(sequential_sum(finite) / len(finite), 6) if finite
                else None)

    def _benefits(policy: str, vals: List[float]) -> Dict[str, object]:
        return {
            "policy": policy,
            "mean_benefit": round(sequential_sum(vals) / len(vals), 6),
            "min_benefit": round(min(vals), 6),
            "max_benefit": round(max(vals), 6),
        }

    aggregates: List[Dict[str, object]] = []
    for label in labels:
        agg = _benefits(label, benefits[label])
        if opt_bounds is not None:
            agg["mean_ratio"] = None
            for name, ratios in ratio_series(opt_bounds,
                                             benefits[label]).items():
                agg[f"mean_{name}"] = _mean(ratios)
        aggregates.append(agg)
    if opt_bounds is not None:
        opt_benefits = [hi for _, hi in opt_bounds]
        agg = _benefits("OPT", opt_benefits)
        # OPT against itself: 1.0 on an exact run, no claim on a
        # bracketed one.
        agg["mean_ratio"] = None
        for name in ratio_series(opt_bounds, opt_benefits):
            agg[f"mean_{name}"] = 1.0 if name == "ratio" else None
        aggregates.append(agg)
    return aggregates


def row_opt_bounds(
    rows: Sequence[Mapping[str, object]]
) -> List[Tuple[float, float]]:
    """Per-seed certified ``(lower, upper)`` OPT brackets of result rows
    (the rows of an exact run carry the ``OPT`` column alone)."""
    return [(float(r.get("OPT_lo", r["OPT"])),
             float(r.get("OPT_hi", r["OPT"]))) for r in rows]


def build_run_manifest(run: ScenarioRun, kind: str = "scenario",
                       extra: Optional[Dict[str, object]] = None
                       ) -> Dict[str, object]:
    """Provenance manifest for a scenario run (see
    :mod:`repro.obs.manifest`): code version, spec hash, seeds and OPT
    mode — deterministic per machine, no timestamps or worker
    counts."""
    return build_manifest(
        kind=kind,
        name=run.spec.name,
        spec=run.spec.to_dict(),
        seeds=run.spec.seeds,
        opt_mode=run.opt_mode,
        extra=extra,
    )


def write_artifacts(
    run: ScenarioRun, out_dir: str = RESULTS_DIR
) -> Tuple[str, str, str]:
    """Write ``result.json``, ``result.csv`` and ``scenario.toml`` under
    ``out_dir/<scenario name>/``; returns the three paths.

    Also drops a ``manifest.json`` provenance record into the directory
    (a side effect, not one of the returned paths — the result-artifact
    schema and this function's signature are unchanged)."""
    target = os.path.join(out_dir, run.spec.name)
    os.makedirs(target, exist_ok=True)
    json_path = os.path.join(target, "result.json")
    csv_path = os.path.join(target, "result.csv")
    toml_path = os.path.join(target, "scenario.toml")
    with open(json_path, "w", encoding="utf-8") as fh:
        # allow_nan=False guarantees the artifact stays strict JSON.
        json.dump(run.artifact(), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
    columns = ["seed", "policy", *run.spec.metrics]
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_table(run.metrics, columns=columns))
    with open(toml_path, "w", encoding="utf-8") as fh:
        fh.write(run.spec.to_toml())
    write_manifest(target, build_run_manifest(run))
    return json_path, csv_path, toml_path
