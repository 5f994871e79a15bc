"""Parallel sweep execution: worker pools and an on-disk result cache.

The experiment suite is dominated by *sweeps*: hundreds of independent
(policy, switch config, trace) simulation points, each a pure function
of its inputs, previously run strictly serially.  This module provides
the fan-out substrate:

* :class:`SweepPoint` — one self-contained unit of work: simulate a
  policy (or solve the exact offline optimum) on a concrete trace and
  config.  Points carry concrete :class:`~repro.traffic.trace.Trace`
  objects (generated in the parent with deterministic per-point seeds)
  because traffic models hold value-model closures that do not pickle.
* :func:`run_sweep_point` — executes one point and returns a plain,
  JSON-serializable payload dict (the fields sweep tables consume).
* :class:`SweepExecutor` — maps points over a ``multiprocessing`` pool
  with chunked dispatch, optionally backed by the content-addressed
  :class:`~repro.farm.store.ResultStore` keyed by (policy spec, config,
  trace content, seed).  With ``workers <= 1`` everything runs
  in-process.

Sweeps are *incremental*: :meth:`SweepExecutor.run` partitions its
points into store hits and missing keys, executes only the missing
ones, and publishes each payload the moment it completes (write-through
— not after the pool drains), so a killed study re-run against the same
store resumes from exactly where it died.  Claim files make concurrent
executors sharing one store cooperate instead of duplicating work, and
completions stream back ``imap_unordered`` (results are re-assembled in
point order, so unordered scheduling never shows in an artifact).

Determinism: a point's payload depends only on the point, every point
carries its own seed-derived trace, and results are returned in point
order regardless of worker scheduling — so a sweep produces bit-identical
tables for any worker count, cold or resumed (the ``repro sweep`` CLI
and the farm CI smoke expose exactly this guarantee).

Used by the scenario runner (:func:`repro.scenarios.run_scenarios`,
through which ``repro sweep``, ``repro scenarios run``, replication
and the ``bench_t*.py`` grids run), the experiment farm
(:mod:`repro.farm`) and ``benchmarks/bench_farm.py``.  See
``docs/parallel.md`` for the cache key schema, store layout and
determinism contract.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import get_context
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set

from time import perf_counter

from .farm.store import ResultStore
from .obs import InMemoryRecorder, merge_snapshots
from .offline.opt import check_opt_mode, cioq_opt, crossbar_opt
from .simulation.engine import (
    run_cioq,
    run_cioq_batch,
    run_crossbar,
    run_crossbar_batch,
)
from .switch.config import SwitchConfig
from .traffic.trace import Trace

#: Bump when the payload schema changes; part of every cache key.
#: v4: the trace term switched from ``sha256(to_json())`` to the binary
#: :meth:`Trace.content_digest` packing, re-keying every entry.
#: v5: the ``opt`` term is the mode alone; windowed OPT is gone, and no
#: cached ``auto`` payload that resolved to windowed is served again.
CACHE_VERSION = 5

#: Fault-injection hook: when set to ``N`` (>= 1), :meth:`SweepExecutor
#: .run` raises :class:`SweepKilled` after publishing its N-th executed
#: point — simulating a study killed mid-sweep with N results durably in
#: the store.  Cache hits don't count; only executed points do.
KILL_AFTER_ENV = "REPRO_FARM_KILL_AFTER"

#: Test hook: when set to a file path, every executed-and-published
#: point appends its cache key (one line, ``O_APPEND``) — the
#: exactly-once ledger the concurrent-writer tests diff.
EXEC_LOG_ENV = "REPRO_FARM_EXEC_LOG"

PolicyFactory = Callable[[], object]


class SweepKilled(RuntimeError):
    """A sweep died mid-run via the :data:`KILL_AFTER_ENV` fault hook.

    Everything published before the kill is durably in the result
    store; re-running the same sweep resumes from those entries."""


def _exec_log(key: str) -> None:
    """Append ``key`` to the exactly-once execution ledger, if enabled."""
    path = os.environ.get(EXEC_LOG_ENV)
    if not path:
        return
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, (key + "\n").encode("utf-8"))
    finally:
        os.close(fd)


@dataclass(frozen=True)
class SweepPoint:
    """One unit of sweep work: a policy (or OPT) on a concrete trace.

    Parameters
    ----------
    model:
        ``"cioq"`` or ``"crossbar"``.
    config, trace:
        The switch instance and the input sequence σ.
    policy_factory:
        Zero-argument callable building a *fresh* policy (a policy
        class, or ``functools.partial`` with keyword parameters — both
        pickle across process boundaries; lambdas do not).  ``None``
        means "solve the exact offline optimum instead".
    seed:
        The seed the trace was generated from (part of the cache key;
        purely informational for hand-built traces).
    tag:
        Row metadata echoed back untouched into the payload under
        ``"tag"`` — the scenario runner records each point's policy
        label and seed there.
    opt_mode:
        Offline-optimum solver selection for OPT points (see
        :mod:`repro.offline.opt`); ignored for policy points, but every
        point rejects a mode that
        :func:`~repro.offline.opt.check_opt_mode` refuses.  Part of the
        cache key — an exact OPT payload and a bracketed one are never
        interchangeable.
    """

    model: str
    config: SwitchConfig
    trace: Trace
    policy_factory: Optional[PolicyFactory] = None
    seed: Optional[int] = None
    tag: Mapping[str, object] = field(default_factory=dict)
    opt_mode: str = "exact"

    def __post_init__(self) -> None:
        if self.model not in ("cioq", "crossbar"):
            raise ValueError(f"unknown switch model {self.model!r}")
        check_opt_mode(self.opt_mode)


def describe_factory(factory: Optional[PolicyFactory]) -> str:
    """Stable textual description of a policy factory (cache key part)."""
    if factory is None:
        return "OPT"
    if isinstance(factory, partial):
        inner = describe_factory(factory.func)
        kwargs = ",".join(f"{k}={v!r}" for k, v in sorted(factory.keywords.items()))
        args = ",".join(repr(a) for a in factory.args)
        return f"{inner}({args};{kwargs})"
    mod = getattr(factory, "__module__", "")
    qual = getattr(factory, "__qualname__", None)
    if qual:
        return f"{mod}.{qual}"
    return repr(factory)  # pragma: no cover - exotic factories defeat caching


def _policy_payload(res, point: SweepPoint) -> Dict[str, object]:
    """Payload dict for a policy point from its simulation result."""
    payload = res.as_payload()
    payload["trace"] = point.trace.name
    payload["seed"] = point.seed
    payload["tag"] = dict(point.tag)
    return payload


def run_sweep_point(
    point: SweepPoint, metrics_every: Optional[int] = None,
) -> Dict[str, object]:
    """Execute one sweep point; pure function of the point.

    Returns a JSON-serializable payload.  For policy points::

        {"policy", "benefit", "n_sent", "n_arrived", "n_accepted",
         "n_rejected", "n_preempted", "n_residual", "value_arrived",
         "trace", "seed", "tag"}

    (the accounting fields come from
    :meth:`~repro.simulation.results.SimulationResult.as_payload`).
    For OPT points (``policy_factory is None``)::

        {"policy": "OPT", "benefit", "opt_mode", "opt_lower",
         "opt_upper", "trace", "seed", "tag"}

    where ``opt_mode`` is the *resolved* solver mode (``"auto"``
    resolves per point, deterministically in the trace and config),
    ``opt_lower == opt_upper == benefit`` for exact solves, and
    ``benefit`` is the conservative bracket upper end otherwise.

    Policy points run on whichever kernel the engine picks (see
    :mod:`repro.simulation.backends`); by the bit-identical kernel
    contract the choice never changes the payload.  OPT points solve
    with the offline machinery selected by the point's ``opt_mode``.

    With ``metrics_every`` set, the point runs under a fresh
    :class:`repro.obs.InMemoryRecorder` sampling every that many slots,
    and the recorder's **deterministic** snapshot is embedded as
    ``payload["obs"]`` — a pure function of the point like everything
    else in the payload, so metric artifacts merged in point order are
    byte-identical for any worker count.  Wall-times never enter the
    payload (the executor keeps them in its quarantined timing ledger).
    """
    if point.policy_factory is None:
        solver = cioq_opt if point.model == "cioq" else crossbar_opt
        opt = solver(point.trace, point.config, mode=point.opt_mode)
        lo, hi = opt.bracket
        payload: Dict[str, object] = {
            "policy": "OPT", "benefit": opt.benefit,
            "opt_mode": opt.mode, "opt_lower": lo, "opt_upper": hi,
            "trace": point.trace.name, "seed": point.seed,
            "tag": dict(point.tag)}
        if metrics_every is not None:
            rec = InMemoryRecorder(every_k=metrics_every)
            rec.counter("opt_solves_total")
            payload["obs"] = rec.snapshot()
        return payload
    policy = point.policy_factory()
    runner = run_cioq if point.model == "cioq" else run_crossbar
    if metrics_every is not None:
        rec = InMemoryRecorder(every_k=metrics_every)
        res = runner(policy, point.config, point.trace, metrics=rec)
        payload = _policy_payload(res, point)
        payload["obs"] = rec.snapshot()
        return payload
    res = runner(policy, point.config, point.trace)
    return _policy_payload(res, point)


def _run_task(task: tuple, metrics_every: Optional[int] = None) -> tuple:
    """Execute one scheduled task; module-level so it pickles.

    A task is ``(kind, [(index, point), ...])``: ``"batch"`` items share
    (model, config, policy spec) and execute in lockstep through the
    batched engine entry points, which pick the kernel; ``"single"``
    items run point-by-point (OPT solves and instrumented points).
    Returns ``(pid, elapsed, indices, payloads)`` so the parent can
    publish results, fill its timing ledger and emit worker heartbeats.
    """
    kind, items = task
    t0 = perf_counter()
    if kind == "batch":
        first = items[0][1]
        runner = (run_cioq_batch if first.model == "cioq"
                  else run_crossbar_batch)
        batch = runner(first.policy_factory, first.config,
                       [p.trace for _, p in items])
        payloads = [_policy_payload(res, p)
                    for (_, p), res in zip(items, batch)]
    else:
        payloads = [run_sweep_point(p, metrics_every=metrics_every)
                    for _, p in items]
    return (os.getpid(), perf_counter() - t0,
            [idx for idx, _ in items], payloads)


class SweepExecutor:
    """Runs sweep points, optionally in parallel and/or cached.

    Uncached policy points group by (model, config, policy spec) into
    lockstep batch tasks for the batched engine entry points, which run
    a batch at or past the engine's crossover on the vectorized kernel;
    with ``workers > 1`` each group splits into per-worker slices so
    batches and leftover points (exact-OPT solves) fan out over the pool
    together.  The kernel is deliberately **not** part of the cache key:
    the kernels are bit-identical by contract, so cached payloads are
    interchangeable.

    Parameters
    ----------
    workers:
        Process count.  ``<= 1`` (the default) runs in-process; ``N >
        1`` fans uncached points out over a ``multiprocessing`` pool in
        chunks of ``ceil(tasks / (4 * workers))`` tasks.
    cache_dir:
        Root of the content-addressed result store
        (:class:`~repro.farm.store.ResultStore`; directories created on
        demand).  ``None`` disables caching.  Keys cover the policy
        spec, the switch config, the full trace content, the point seed
        and :data:`CACHE_VERSION`, so any input change misses cleanly.
        :meth:`run` is *incremental* against the store: hits are
        returned without executing, missing points publish write-through
        as each completes, and points claimed by another live executor
        are awaited instead of duplicated.
    pool:
        Optional :class:`~repro.farm.pool.PersistentPool` reused across
        every :meth:`run` call (the farm serve loop passes one), paying
        worker spawn cost once per pool instead of once per call.
        ``None`` with ``workers > 1`` spawns an ephemeral pool per call,
        matching the pre-farm behavior.
    metrics_every:
        When set, every point runs instrumented (see
        :func:`run_sweep_point`) and embeds a deterministic ``"obs"``
        snapshot in its payload; :meth:`merged_obs` merges them in point
        order, and the executor keeps those snapshots (never the
        payloads) for it.  Instrumented points skip the lockstep batch
        grouping and run individually so each point's snapshot stays a
        pure function of that point.  ``metrics_every`` joins the cache
        key (only when set — uninstrumented sweeps keep their existing
        keys) because instrumented and plain payloads differ.
    progress:
        Optional callable receiving progress/heartbeat event dicts from
        :meth:`run` (``{"event": "cache", ...}``, per-point
        ``{"event": "point", "index", "total", "pid", "elapsed"}``,
        ``{"event": "done", ...}``).  Events carry wall-times and worker
        pids — observability only, never part of any artifact.

    After :meth:`run`: ``cache_hits`` / ``cache_misses`` count payload
    cache outcomes, and ``timings`` is the per-point wall-time ledger
    (list of ``{"index", "policy", "trace", "seed", "pid", "elapsed"}``
    dicts) — quarantined, non-deterministic data for ``timings.json``.
    """

    def __init__(
        self,
        workers: int = 0,
        cache_dir: Optional[str] = None,
        metrics_every: Optional[int] = None,
        progress: Optional[Callable[[Dict[str, object]], None]] = None,
        pool=None,
    ):
        if metrics_every is not None and metrics_every < 0:
            raise ValueError(
                f"metrics_every must be >= 0, got {metrics_every}"
            )
        self.workers = int(workers or 0)
        self.cache_dir = cache_dir
        self.store: Optional[ResultStore] = (
            ResultStore(cache_dir, CACHE_VERSION)
            if cache_dir is not None else None
        )
        self.metrics_every = metrics_every
        self.progress = progress
        self.pool = pool
        self.cache_hits = 0
        self.cache_misses = 0
        self.timings: List[Dict[str, object]] = []
        # What merged_obs() reads, kept only when metrics are on.
        self._obs: List[Dict[str, object]] = []
        self._points_served = 0

    def _emit(self, event: Dict[str, object]) -> None:
        if self.progress is not None:
            self.progress(event)

    def _time_entry(self, index: int, point: SweepPoint, pid: int,
                    elapsed: float) -> Dict[str, object]:
        return {
            "index": index,
            "policy": describe_factory(point.policy_factory),
            "trace": point.trace.name,
            "seed": point.seed,
            "pid": pid,
            "elapsed": elapsed,
        }

    def merged_obs(self) -> Optional[Dict[str, object]]:
        """Deterministic merge (point order) of the ``"obs"`` snapshots
        embedded by every :meth:`run` this executor has served (batched
        callers like replication share one executor); ``None`` when the
        executor is uninstrumented.  Byte-identical for any worker count
        and for cached vs fresh payloads."""
        if self.metrics_every is None:
            return None
        snap = merge_snapshots(self._obs)
        snap["gauges"]["sweep_points_total"] = self._points_served
        return snap

    # -- cache ---------------------------------------------------------------

    def cache_key(self, point: SweepPoint) -> str:
        c = point.config
        spec = {
            "v": CACHE_VERSION,
            "model": point.model,
            "config": [c.n_in, c.n_out, c.speedup, c.b_in, c.b_out, c.b_cross],
            "policy": describe_factory(point.policy_factory),
            "trace": point.trace.content_digest(),
            "seed": point.seed,
            "opt": point.opt_mode,
        }
        # Instrumented payloads carry an embedded "obs" snapshot, so
        # they get distinct keys; the key is only extended when metrics
        # are on, leaving every pre-existing cache entry addressable.
        if self.metrics_every is not None:
            spec["metrics"] = self.metrics_every
        blob = json.dumps(spec, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    # -- execution -----------------------------------------------------------

    def run(self, points: Sequence[SweepPoint]) -> List[Dict[str, object]]:
        """Execute ``points``; returns payloads in point order.

        Incremental: with a store attached, hits return without
        executing, missing points publish write-through as each
        completes (a killed run leaves everything it finished durably
        cached), and points claimed by another live executor are awaited
        rather than duplicated.  The payload list is assembled by point
        index, so the result is byte-identical regardless of worker
        count, cache state, or how many restarts the sweep took.
        """
        results: List[Optional[Dict[str, object]]] = [None] * len(points)
        caching = self.store is not None
        # Keys are hashed once per point (they serialize the full trace).
        keys = [self.cache_key(p) for p in points] if caching else None
        pending: List[int] = []
        waiting: List[int] = []
        for idx in range(len(points)):
            if caching:
                hit = self.store.get(keys[idx])
                if hit is not None:
                    self.cache_hits += 1
                    results[idx] = hit
                    continue
                if not self.store.claim(keys[idx]):
                    # A live executor elsewhere is computing this exact
                    # point; await its publish instead of duplicating.
                    waiting.append(idx)
                    continue
                hit = self.store.get(keys[idx])
                if hit is not None:
                    # Raced a concurrent publisher: a publish always
                    # precedes its claim release, so re-checking after
                    # winning the claim keeps execution exactly-once.
                    self.store.release(keys[idx])
                    self.cache_hits += 1
                    results[idx] = hit
                    continue
            pending.append(idx)
        self.cache_misses += len(pending)
        self._emit({"event": "cache", "total": len(points),
                    "hits": self.cache_hits, "misses": self.cache_misses})

        claimed: Set[int] = set(pending) if caching else set()
        try:
            if pending:
                self._execute(points, results, keys, pending, claimed)
            for idx in waiting:
                payload = self.store.wait_for(keys[idx])
                if payload is None:
                    # The claimer died/timed out without publishing:
                    # compute locally (idempotent — wasteful at worst).
                    payload = run_sweep_point(
                        points[idx], metrics_every=self.metrics_every)
                    self.store.put(keys[idx], payload)
                    self.cache_misses += 1
                else:
                    self.cache_hits += 1
                results[idx] = payload
        finally:
            if caching:
                for idx in claimed:
                    self.store.release(keys[idx])
        if self.metrics_every is not None:
            self._obs.extend(p["obs"] for p in results if "obs" in p)
            self._points_served += len(results)
        self._emit({"event": "done", "total": len(points),
                    "hits": self.cache_hits, "misses": self.cache_misses})
        return results  # type: ignore[return-value]

    def _schedule(self, points: Sequence[SweepPoint],
                  pending: List[int]) -> List[tuple]:
        """Build the task list for the pending indices.

        Policy points group by (model, config, policy spec) into
        lockstep batch tasks (seed ladders execute through the
        vectorized kernel); with ``workers > 1`` each group splits into
        up to ``workers`` slices so one big ladder still saturates the
        pool.  OPT solves — and, under ``metrics_every``, every point,
        since each must run under its own recorder to keep
        ``payload["obs"]`` a pure per-point function — become
        single-point tasks.  Batch groups run serially on the reference
        kernel inside the engine when they are below the lanes x ports
        crossover or the fast kernel cannot take them.
        """
        if self.metrics_every is not None:
            return [("single", [(i, points[i])]) for i in pending]
        groups: Dict[tuple, List[int]] = {}
        singles: List[int] = []
        for idx in pending:
            point = points[idx]
            if point.policy_factory is None:
                singles.append(idx)
                continue
            c = point.config
            gkey = (
                point.model,
                (c.n_in, c.n_out, c.speedup, c.b_in, c.b_out, c.b_cross),
                describe_factory(point.policy_factory),
            )
            groups.setdefault(gkey, []).append(idx)
        tasks: List[tuple] = []
        for idxs in groups.values():
            slices = min(self.workers, len(idxs)) if self.workers > 1 else 1
            size = -(-len(idxs) // slices)
            for s in range(0, len(idxs), size):
                tasks.append(
                    ("batch", [(i, points[i]) for i in idxs[s:s + size]]))
        tasks.extend(("single", [(i, points[i])]) for i in singles)
        return tasks

    def _execute(
        self,
        points: Sequence[SweepPoint],
        results: List[Optional[Dict[str, object]]],
        keys: Optional[List[str]],
        pending: List[int],
        claimed: Set[int],
    ) -> None:
        """Run the pending indices and publish each completion.

        Completions stream back unordered (``imap_unordered`` — no
        barrier on submission order); publishing is write-through: the
        payload lands in the store, its claim drops, and the result slot
        fills the moment the task finishes, which is what makes a
        killed sweep resumable at point granularity.
        """
        total = len(points)
        tasks = self._schedule(points, pending)
        kill_env = os.environ.get(KILL_AFTER_ENV)
        kill_after = int(kill_env) if kill_env else None
        published = 0

        def publish(idx: int, pid: int, elapsed: float,
                    payload: Dict[str, object]) -> None:
            nonlocal published
            if keys is not None:
                self.store.put(keys[idx], payload)
                self.store.release(keys[idx])
                claimed.discard(idx)
                _exec_log(keys[idx])
            results[idx] = payload
            self.timings.append(
                self._time_entry(idx, points[idx], pid, elapsed))
            self._emit({"event": "point", "index": idx, "total": total,
                        "pid": pid, "elapsed": elapsed})
            published += 1
            if kill_after is not None and published >= kill_after:
                raise SweepKilled(
                    f"fault injection: killed after {published} points")

        func = partial(_run_task, metrics_every=self.metrics_every)
        if self.workers > 1 and len(tasks) > 1:
            chunk = -(-len(tasks) // (4 * min(self.workers, len(tasks))))
            if self.pool is not None:
                stream = self.pool.imap_unordered(
                    func, tasks, chunksize=chunk)
                self._drain(stream, publish)
            else:
                ctx = get_context()
                workers = min(self.workers, len(tasks))
                with ctx.Pool(processes=workers) as pool:
                    self._drain(
                        pool.imap_unordered(func, tasks, chunksize=chunk),
                        publish)
        else:
            for task in tasks:
                self._drain([func(task)], publish)

    @staticmethod
    def _drain(stream, publish) -> None:
        """Feed completed tasks through the publish callback, splitting
        each task's total wall time evenly over its points (timings are
        quarantined observability, never artifact data)."""
        for pid, elapsed, idxs, payloads in stream:
            per_point = elapsed / max(1, len(idxs))
            for idx, payload in zip(idxs, payloads):
                publish(idx, pid, per_point, payload)
