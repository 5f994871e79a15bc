"""Multi-seed replication of scenarios with sequential early stopping.

:func:`replicate_scenario` runs a registered (or file-loaded)
:class:`~repro.scenarios.spec.ScenarioSpec` across a batch of replicate
seeds through the same :class:`~repro.parallel.SweepExecutor` substrate
as single runs — every (seed, policy) point fans out over ``--workers``
processes and caches on disk — and aggregates the per-seed metrics with
streaming :class:`~repro.stats.welford.Welford` accumulators into
mean / stddev / normal-CI / bootstrap-CI summary rows.

When the plan carries a ``target_half_width``, seeds run in batches and
replication stops at the end of the first batch where *every* policy's
CI half-width for the target metric has shrunk to the target — the
sequential early-stopping rule documented in ``docs/statistics.md``.
Stopping decisions depend only on deterministic payloads, so a
replicated run (including whether and where it stopped) is bit-identical
for any worker count.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .._version import __version__
from ..analysis.ratio import ratio_series
from ..analysis.report import csv_table, format_summary_table
from ..obs import write_manifest
from ..parallel import SweepExecutor
from ..scenarios.runner import (
    ScenarioRun,
    build_run_manifest,
    compute_aggregates,
    run_scenario,
    write_artifacts,
)
from ..scenarios.spec import REPLICATES_DEFAULTS, ScenarioSpec
from .ci import half_width
from .summarize import (
    SUMMARY_COLUMNS,
    SUMMARY_VERSION,
    build_summary_rows,
    collect_series,
)
from .welford import Welford


@dataclass(frozen=True)
class ReplicationPlan:
    """Resolved replication parameters (spec block + overrides).

    Field semantics match the spec's ``replicates`` block (see
    :data:`repro.scenarios.spec.REPLICATES_DEFAULTS`); a plan is always
    fully resolved — no missing keys.
    """

    n: int = REPLICATES_DEFAULTS["n"]
    base_seed: int = REPLICATES_DEFAULTS["base_seed"]
    confidence: float = REPLICATES_DEFAULTS["confidence"]
    bootstrap: int = REPLICATES_DEFAULTS["bootstrap"]
    bootstrap_seed: int = REPLICATES_DEFAULTS["bootstrap_seed"]
    target_half_width: Optional[float] = None
    target_metric: str = REPLICATES_DEFAULTS["target_metric"]
    batch: int = REPLICATES_DEFAULTS["batch"]

    @classmethod
    def from_spec(cls, spec: ScenarioSpec, **overrides) -> "ReplicationPlan":
        """Plan from a spec's ``replicates`` block, with overrides
        (``None`` override values mean "keep the spec's value").

        Validation happens by round-tripping the merged block through
        the spec itself, so CLI overrides obey exactly the rules a
        hand-written block does.
        """
        merged = dict(spec.replicates)
        for key, value in overrides.items():
            if value is not None:
                merged[key] = value
        # Re-validate the merged block (also resolves target_metric /
        # include_opt interactions).
        spec.with_overrides(replicates=merged)
        fields = {**REPLICATES_DEFAULTS, **merged}
        return cls(
            n=fields["n"],
            base_seed=fields["base_seed"],
            confidence=fields["confidence"],
            bootstrap=fields["bootstrap"],
            bootstrap_seed=fields["bootstrap_seed"],
            target_half_width=fields.get("target_half_width"),
            target_metric=fields["target_metric"],
            batch=fields["batch"],
        )

    def seeds(self) -> Tuple[int, ...]:
        """The full replicate seed ladder ``base_seed .. base_seed+n-1``."""
        return tuple(range(self.base_seed, self.base_seed + self.n))

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "n": self.n,
            "base_seed": self.base_seed,
            "confidence": self.confidence,
            "bootstrap": self.bootstrap,
            "bootstrap_seed": self.bootstrap_seed,
            "target_metric": self.target_metric,
            "batch": self.batch,
        }
        if self.target_half_width is not None:
            out["target_half_width"] = self.target_half_width
        return out


@dataclass
class ReplicatedRun:
    """Outcome of one replicated scenario execution."""

    spec: ScenarioSpec
    plan: ReplicationPlan
    #: The combined per-seed run over every seed that actually executed
    #: (its artifact is what ``result.json``/``result.csv`` record).
    run: ScenarioRun
    #: One :data:`SUMMARY_COLUMNS` row per (policy, metric).
    summary: List[Dict[str, object]]
    seeds_used: Tuple[int, ...]
    stopped_early: bool

    def artifact(self) -> Dict[str, object]:
        """The versioned, JSON-serializable summary record."""
        return {
            "summary_version": SUMMARY_VERSION,
            "repro_version": __version__,
            "scenario": self.spec.to_dict(),
            "plan": self.plan.as_dict(),
            # Always-null window keeps these bytes (see ARTIFACT_VERSION).
            "opt": {"mode": self.run.opt_mode, "window": None},
            "seeds_used": list(self.seeds_used),
            "stopped_early": self.stopped_early,
            "summary": self.summary,
        }

    def tables(self) -> str:
        """Per-seed tables plus the replication summary."""
        stopped = " (stopped early)" if self.stopped_early else ""
        title = (
            f"replication summary: {len(self.seeds_used)}/{self.plan.n} "
            f"seeds{stopped}, {self.plan.confidence * 100:g}% CI"
        )
        return "\n".join([
            self.run.tables(),
            format_summary_table(self.summary, title=title),
        ])


def _target_values(
    run: ScenarioRun, label: str, metric: str
) -> List[Optional[float]]:
    """Per-seed values of the early-stopping target for one policy."""
    if metric == "benefit":
        return list(run.benefits[label])
    if metric == "ratio":
        # With an open OPT bracket the stopping target is the
        # conservative end, ratio_hi.
        series = ratio_series(run.opt_bounds, run.benefits[label])
        return series.get("ratio") or series["ratio_hi"]
    return [
        float(m[metric])
        for m in run.metrics
        if m["policy"] == label and m.get(metric) is not None
    ]


def replicate_scenario(
    spec: ScenarioSpec,
    plan: Optional[ReplicationPlan] = None,
    executor: Optional[SweepExecutor] = None,
    opt_mode: str = "exact",
) -> ReplicatedRun:
    """Run ``spec`` across the plan's replicate seeds; pure function of
    (spec, plan).

    Without a plan argument, the spec's own ``replicates`` block is
    used (it must be non-empty).  ``executor`` defaults to a serial,
    uncached ``SweepExecutor()``.  Results — per-seed artifact and
    summary rows alike — are bit-identical for any worker count, and by
    the kernel contract whichever kernel runs a batch: each seed
    batch's (policy, seed) ladder runs as one lockstep batch, which
    the engine puts on the vectorized kernel once it reaches the
    crossover (see :class:`~repro.parallel.SweepExecutor`); that is
    where multi-seed replication amortizes the slot loop.
    """
    if plan is None:
        if not spec.replicates:
            raise ValueError(
                f"scenario {spec.name!r} has no replicates block; pass a "
                f"ReplicationPlan or use run_scenario for single runs"
            )
        plan = ReplicationPlan.from_spec(spec)
    ex = executor if executor is not None else SweepExecutor()

    all_seeds = plan.seeds()
    if plan.target_half_width is None:
        batches = [all_seeds]
    else:
        batches = [all_seeds[i:i + plan.batch]
                   for i in range(0, len(all_seeds), plan.batch)]

    labels = spec.policy_labels()
    accumulators: Dict[str, Welford] = {label: Welford() for label in labels}
    rows: List[Dict[str, object]] = []
    metrics: List[Dict[str, object]] = []
    # The payloads' unrounded per-seed values, not the rows' rounding.
    benefits: Dict[str, List[float]] = {label: [] for label in labels}
    opt_bounds: List[Tuple[float, float]] = []
    stopped_early = False
    seeds_used: List[int] = []

    for batch_no, batch in enumerate(batches):
        sub = spec.with_overrides(seeds=batch)
        part = run_scenario(sub, executor=ex, opt_mode=opt_mode)
        rows.extend(part.rows)
        metrics.extend(part.metrics)
        for label in labels:
            benefits[label].extend(part.benefits[label])
        opt_bounds.extend(part.opt_bounds)
        seeds_used.extend(batch)
        if plan.target_half_width is None:
            continue
        for label in labels:
            accumulators[label].add_many(
                v for v in _target_values(part, label, plan.target_metric)
                if v is not None
            )
        done = all(
            acc.n >= 2
            and math.isfinite(hw := half_width(acc.std, acc.n,
                                               plan.confidence))
            and hw <= plan.target_half_width
            for acc in accumulators.values()
        )
        if done and batch_no + 1 < len(batches):
            stopped_early = True
            break
        if done:
            break

    spec_used = spec.with_overrides(seeds=seeds_used)
    combined = ScenarioRun(
        spec=spec_used,
        rows=rows,
        aggregates=compute_aggregates(
            labels, benefits, opt_bounds if spec.include_opt else None),
        metrics=metrics,
        opt_mode=opt_mode,
        benefits=benefits,
        opt_bounds=opt_bounds,
    )
    series = collect_series(rows, metrics, labels, spec.metrics,
                            spec.include_opt, benefits=benefits,
                            opt_bounds=opt_bounds)
    summary = build_summary_rows(
        series,
        confidence=plan.confidence,
        bootstrap=plan.bootstrap,
        bootstrap_seed=plan.bootstrap_seed,
    )
    return ReplicatedRun(
        spec=spec_used,
        plan=plan,
        run=combined,
        summary=summary,
        seeds_used=tuple(seeds_used),
        stopped_early=stopped_early,
    )


def write_replicated_artifacts(
    rrun: ReplicatedRun, out_dir: str = "results"
) -> Tuple[str, ...]:
    """Persist a replicated run under ``out_dir/<name>/``.

    Writes the three per-seed artifacts (``result.json``,
    ``result.csv``, ``scenario.toml`` — via the scenario runner's
    :func:`~repro.scenarios.runner.write_artifacts`) plus
    ``summary.json`` (the versioned summary record) and ``summary.csv``
    (:data:`SUMMARY_COLUMNS` rows).  Returns all five paths.  Like
    every artifact in the repo, the files carry no timestamps and
    reproduce byte-for-byte.

    The directory's ``manifest.json`` (written by ``write_artifacts``)
    is rewritten with ``kind="replication"`` and the resolved plan so
    provenance records how the seeds were chosen.
    """
    paths = write_artifacts(rrun.run, out_dir)
    target = os.path.join(out_dir, rrun.spec.name)
    write_manifest(target, build_run_manifest(
        rrun.run, kind="replication",
        extra={"plan": rrun.plan.as_dict(),
               "stopped_early": rrun.stopped_early},
    ))
    summary_json = os.path.join(target, "summary.json")
    summary_csv = os.path.join(target, "summary.csv")
    with open(summary_json, "w", encoding="utf-8") as fh:
        json.dump(rrun.artifact(), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
    with open(summary_csv, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_table(rrun.summary, columns=list(SUMMARY_COLUMNS)))
    return (*paths, summary_json, summary_csv)
