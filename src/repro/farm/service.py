"""The experiment-farm service loop (``repro serve``).

:func:`serve` treats scenario runs as requests: it drains a
:class:`~repro.farm.jobs.JobQueue`, executing each job through **one**
shared :class:`~repro.parallel.SweepExecutor` whose
:class:`~repro.farm.pool.PersistentPool` and
:class:`~repro.farm.store.ResultStore` persist across jobs — so the
worker-spawn cost is paid once per server (not once per job) and every
job's points hit the shared content-addressed store.  Combined with the
executor's incremental scheduling (only store-missing points execute)
and the queue's ``running/`` recovery, a killed server resumes exactly
where it died: re-serving the same queue re-runs only the points the
dead server never published, and the final artifacts are byte-identical
to a fresh serial run (pinned by the farm CI smoke).

Jobs are built by :func:`build_job` (the ``repro submit`` payload): a
registered scenario name or an inline spec dict, optional overrides
(slots/seeds), replication options, and OPT solver selection.  The
artifacts a job writes are exactly what ``repro scenarios run`` would
have written — the farm changes *when and where* work happens, never
its bytes.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional

from ..offline.opt import check_opt_mode
from ..parallel import SweepExecutor, SweepKilled
from .jobs import JobQueue
from .pool import PersistentPool

__all__ = ["build_job", "resolve_job", "run_job", "serve", "farm_status"]


def build_job(
    scenario: Optional[str] = None,
    spec_dict: Optional[Dict[str, object]] = None,
    slots: Optional[int] = None,
    seeds: Optional[List[int]] = None,
    replicates: Optional[int] = None,
    opt_mode: str = "exact",
) -> Dict[str, object]:
    """A queue-serializable job payload (see :func:`run_job`)."""
    if (scenario is None) == (spec_dict is None):
        raise ValueError("a job needs a scenario name or a spec, not both")
    check_opt_mode(opt_mode)
    job: Dict[str, object] = {"opt_mode": opt_mode}
    if scenario is not None:
        job["scenario"] = scenario
    if spec_dict is not None:
        job["spec"] = spec_dict
    if slots is not None:
        job["slots"] = int(slots)
    if seeds is not None:
        job["seeds"] = [int(s) for s in seeds]
    if replicates is not None:
        job["replicates"] = int(replicates)
    return job


def resolve_job(job: Dict[str, object]):
    """The job's ``(spec, plan)``, ``plan`` ``None`` for a single run;
    raises ``KeyError``/``ValueError`` for a job that can never run."""
    from ..scenarios import ScenarioSpec, get_scenario
    from ..stats import ReplicationPlan

    if job.get("spec") is not None:
        spec = ScenarioSpec.from_dict(job["spec"])
    else:
        spec = get_scenario(str(job["scenario"]))
    spec = spec.with_overrides(slots=job.get("slots"),
                               seeds=job.get("seeds"))
    if not spec.replicates and job.get("replicates") is None:
        return spec, None
    return spec, ReplicationPlan.from_spec(spec, n=job.get("replicates"))


def run_job(job: Dict[str, object], executor: SweepExecutor,
            out_dir: str = "results") -> Dict[str, object]:
    """Execute one job through ``executor``; returns a result summary.

    Replicated when the resolved spec carries a ``replicates`` block or
    the job asks for one — mirroring ``repro scenarios run``, so a job
    and a CLI run of the same scenario write identical artifacts.
    """
    spec, plan = resolve_job(job)
    opt_mode = str(job.get("opt_mode", "exact"))
    if plan is not None:
        from ..stats import replicate_scenario, write_replicated_artifacts

        rrun = replicate_scenario(spec, plan=plan, executor=executor,
                                  opt_mode=opt_mode)
        paths = write_replicated_artifacts(rrun, out_dir)
        name = rrun.spec.name
    else:
        from ..scenarios import run_scenario, write_artifacts

        run = run_scenario(spec, executor=executor, opt_mode=opt_mode)
        paths = write_artifacts(run, out_dir)
        name = run.spec.name
    return {"scenario": name, "replicated": plan is not None,
            "artifacts": list(paths)}


def serve(
    queue_root: str,
    out_dir: str = "results",
    cache_dir: Optional[str] = None,
    workers: int = 0,
    max_jobs: Optional[int] = None,
    idle_timeout: Optional[float] = None,
    poll: float = 0.2,
    metrics=None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Drain ``queue_root`` until ``max_jobs`` jobs are finished or the
    queue stays empty for ``idle_timeout`` seconds (forever when both
    are ``None``); returns a serve summary dict.

    One persistent pool + executor serves every job.  ``metrics`` is an
    optional :class:`repro.obs.InMemoryRecorder`: the loop maintains the
    farm gauges/counters documented in ``docs/observability.md``
    (``farm_queue_depth``, ``farm_jobs_total``, ...) and quarantines
    per-worker busy time in its wall-time section.  A job that raises is
    marked failed and the loop continues; a :class:`SweepKilled` fault
    injection propagates (the job stays in ``running/`` for the next
    server's recovery pass).
    """
    queue = JobQueue(queue_root)
    requeued = queue.requeue_stale()
    if requeued and progress is not None:
        progress(f"requeued {len(requeued)} stale running job(s): "
                 f"{', '.join(requeued)}")
    pool = PersistentPool(workers) if workers > 1 else None
    executor = SweepExecutor(workers=workers, cache_dir=cache_dir,
                             pool=pool)
    served = failed = 0
    idle_since = time.monotonic()
    try:
        while True:
            if max_jobs is not None and served + failed >= max_jobs:
                break
            job = queue.claim_next()
            if metrics is not None:
                metrics.gauge("farm_queue_depth", queue.depth())
                metrics.gauge("farm_workers", max(1, workers))
            if job is None:
                if (idle_timeout is not None
                        and time.monotonic() - idle_since >= idle_timeout):
                    break
                time.sleep(poll)
                continue
            job_id = str(job["id"])
            if progress is not None:
                progress(f"{job_id}: "
                         f"{job.get('scenario') or 'inline spec'}")
            hits0, miss0 = executor.cache_hits, executor.cache_misses
            try:
                result = run_job(job, executor, out_dir=out_dir)
            except SweepKilled:
                raise  # fault injection: die with the job still running
            except Exception as exc:  # noqa: BLE001 - job isolation
                queue.fail(job_id, f"{type(exc).__name__}: {exc}")
                failed += 1
                if metrics is not None:
                    metrics.counter("farm_jobs_failed_total")
                idle_since = time.monotonic()
                continue
            result["store_hits"] = executor.cache_hits - hits0
            result["store_misses"] = executor.cache_misses - miss0
            queue.complete(job_id, result)
            served += 1
            idle_since = time.monotonic()
            if metrics is not None:
                metrics.counter("farm_jobs_total")
                metrics.counter("farm_points_executed_total",
                                result["store_misses"])
                metrics.counter("cache_hits_total", result["store_hits"])
                metrics.counter("cache_misses_total",
                                result["store_misses"])
                metrics.gauge("farm_queue_depth", queue.depth())
            if progress is not None:
                progress(f"{job_id}: done "
                         f"({result['store_hits']} store hits, "
                         f"{result['store_misses']} executed)")
    finally:
        if pool is not None:
            pool.close()
        if metrics is not None and metrics.timed:
            for entry in executor.timings:
                metrics.add_time("worker_busy_seconds",
                                 float(entry["elapsed"]))
    return {"served": served, "failed": failed,
            "store_hits": executor.cache_hits,
            "store_misses": executor.cache_misses,
            "timings": executor.timings}


def farm_status(queue_root: str,
                cache_dir: Optional[str] = None) -> Dict[str, object]:
    """Queue counts, per-job lines and (optionally) store statistics —
    the data behind ``repro farm status``.  Raises ``FileNotFoundError``
    when ``queue_root`` is not a directory: inspecting a queue never
    creates one."""
    if not os.path.isdir(queue_root):
        raise FileNotFoundError(f"no farm queue at {queue_root}")
    queue = JobQueue(queue_root)
    status: Dict[str, object] = {"counts": queue.counts()}
    jobs: List[Dict[str, object]] = []
    from .jobs import JOB_STATES

    for state in JOB_STATES:
        for job in queue.jobs(state):
            jobs.append({
                "job": job.get("id"),
                "state": state,
                "scenario": job.get("scenario")
                or (job.get("spec") or {}).get("name", "inline"),
                "detail": (job.get("error")
                           or (job.get("result") or {}).get("scenario", "")),
            })
    status["jobs"] = jobs
    if cache_dir is not None:
        from ..parallel import CACHE_VERSION
        from .store import ResultStore

        status["store"] = ResultStore(cache_dir, CACHE_VERSION).stats()
    return status
