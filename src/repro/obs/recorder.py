"""Metrics recorders: the zero-overhead-when-off telemetry core.

Three recorder shapes implement one protocol (:class:`MetricsRecorder`):

``None`` / :data:`NULL_METRICS`
    Metrics off.  Every engine entry point accepts ``metrics=None`` (the
    default) or the shared :class:`NullRecorder` instance; both resolve
    to the *same* compiled-out path — the kernel checks
    ``metrics is None or not metrics.enabled`` **once per run**, before
    the slot loop, and the loop body then pays at most one short-circuit
    boolean test per slot (never per packet, never per lane).  The
    bit-identity and performance contracts of the ``reference`` and
    ``fast`` backends are untouched: a run with metrics off produces a
    payload byte-identical to a run that never heard of metrics
    (``tests/test_backend_equivalence.py`` pins this differentially, and
    ``benchmarks/bench_obs.py`` enforces the <= 5% overhead budget).

:class:`InMemoryRecorder`
    Metrics on.  Collects

    * **counters** — monotone totals (packets arrived/sent/rejected/
      preempted, executed slots, cache hits, ...);
    * **gauges** — last-write-wins instantaneous values;
    * **histograms** — ``(count, sum, min, max)`` plus power-of-two
      bucket counts, cheap enough for per-point latencies;
    * a **per-slot series** via the sampling hook
      (:meth:`InMemoryRecorder.slot_sample`), taken every ``every_k``
      slots: queue occupancy (VOQ/crosspoint/output totals), cumulative
      drops and preemptions, and the slot's matching size;
    * **wall-times** (:meth:`InMemoryRecorder.timer` /
      :meth:`InMemoryRecorder.add_time`) — quarantined in a separate
      section (:meth:`InMemoryRecorder.walltimes`) because they are the
      one non-deterministic thing a recorder holds.

    :meth:`InMemoryRecorder.snapshot` returns only the deterministic
    sections, so snapshots embedded in sweep payloads merge
    byte-identically for any worker count.

The split matters: everything consumed by artifacts and CI byte-diffs
comes from ``snapshot()``; everything timing-related stays in
``walltimes()`` and is written to a separate, diff-excluded ledger.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Protocol, runtime_checkable

#: Schema version of recorder snapshots (and the JSONL stream built from
#: them); bump when the snapshot layout changes.
SNAPSHOT_VERSION = 1

#: Catalog of every metric the subsystem emits: name -> (type, help).
#: ``docs/observability.md`` must document each name with a `### <name>`
#: section (pinned by tests/test_package.py, the same registry<->docs
#: pattern as scenarios, backends and OPT modes).
METRIC_CATALOG: Dict[str, tuple] = {
    "runs_total": ("counter", "engine runs executed"),
    "slots_total": ("counter", "slots executed across runs (incl. drain)"),
    "packets_arrived_total": ("counter", "packets offered to the switch"),
    "packets_sent_total": ("counter", "packets transmitted"),
    "packets_rejected_total": ("counter", "packets dropped on arrival"),
    "packets_preempted_total": ("counter", "packets preempted (all sites)"),
    "benefit_total": ("counter", "total transmitted value"),
    "opt_solves_total": ("counter", "offline OPT solves executed"),
    "cache_hits_total": ("counter", "sweep-cache payload hits"),
    "cache_misses_total": ("counter", "sweep-cache payload misses"),
    "sweep_points_total": ("gauge", "points in the current sweep"),
    "farm_queue_depth": ("gauge", "jobs waiting in the farm queue"),
    "farm_workers": ("gauge", "worker processes serving the farm"),
    "farm_jobs_total": ("counter", "farm jobs completed"),
    "farm_jobs_failed_total": ("counter", "farm jobs failed"),
    "farm_points_executed_total": ("counter",
                                   "sweep points executed by farm jobs"),
    "queue_occupancy": ("series", "per-slot VOQ/crosspoint/output totals"),
    "matching_size": ("series", "packets transmitted in the sampled slot"),
    "phase_arrival_seconds": ("timer", "wall time in the arrival phase"),
    "phase_schedule_seconds": ("timer", "wall time in scheduling cycles"),
    "phase_transmit_seconds": ("timer", "wall time in the transmission phase"),
    "run_seconds": ("timer", "wall time of one engine run"),
    "point_seconds_total": ("timer", "wall time of every sweep point, summed"),
    "worker_busy_seconds": ("timer",
                            "cumulative worker wall time across farm jobs"),
}

#: Keys of one per-slot series sample, in emission order.
SERIES_FIELDS = (
    "slot", "lane", "voq", "cross", "out",
    "matched", "arrived", "sent", "rejected", "preempted",
)


@runtime_checkable
class MetricsRecorder(Protocol):
    """Structural protocol every recorder satisfies.

    ``enabled`` is the once-per-run guard; ``every_k`` the per-slot
    sampling period (0 disables the series hook); ``timed`` opts into
    per-phase wall-time measurement (off by default even when metrics
    are on, because clock reads are the costly part).
    """

    enabled: bool
    every_k: int
    timed: bool

    def counter(self, name: str, inc: float = 1) -> None: ...

    def gauge(self, name: str, value: float) -> None: ...

    def observe(self, name: str, value: float) -> None: ...

    def slot_sample(self, slot: int, lane: int, voq: int, cross: int,
                    out: int, matched: int, arrived: int, sent: int,
                    rejected: int, preempted: int) -> None: ...

    def add_time(self, name: str, seconds: float) -> None: ...


class NullRecorder:
    """Metrics-off recorder: every call is a no-op.

    The kernel never actually calls these in a run — ``enabled`` is
    checked once before the slot loop and the metrics branches are then
    dead — the methods exist only so a recorder can be passed (and type-
    checked) unconditionally.  A run with ``metrics=NULL_METRICS`` is
    payload-byte-identical to one with ``metrics=None``.
    """

    __slots__ = ()
    enabled = False
    every_k = 0
    timed = False

    def counter(self, name: str, inc: float = 1) -> None:
        """Ignore a counter increment."""

    def gauge(self, name: str, value: float) -> None:
        """Ignore a gauge write."""

    def observe(self, name: str, value: float) -> None:
        """Ignore a histogram observation."""

    def slot_sample(self, slot: int, lane: int, voq: int, cross: int,
                    out: int, matched: int, arrived: int, sent: int,
                    rejected: int, preempted: int) -> None:
        """Ignore a per-slot sample."""

    def add_time(self, name: str, seconds: float) -> None:
        """Ignore a wall-time measurement."""

    @contextmanager
    def timer(self, name: str):
        """No-op timing context."""
        yield


#: Shared stateless metrics-off instance.
NULL_METRICS = NullRecorder()


def resolve(metrics: Optional[MetricsRecorder]):
    """The once-per-run guard: an active recorder, or ``None``.

    Engine code calls this exactly once per run; a ``None`` return means
    every metrics branch in the hot path is skipped via one local
    boolean.
    """
    if metrics is None or not metrics.enabled:
        return None
    return metrics


def _bucket(value: float) -> int:
    """Power-of-two bucket index for histogram observations (bucket ``b``
    holds values in ``(2^(b-1), 2^b]``; non-positive values land in 0)."""
    b = 0
    v = abs(value)
    while v > 1 and b < 63:
        v /= 2.0
        b += 1
    return b


class InMemoryRecorder:
    """Collecting recorder (metrics on).

    Parameters
    ----------
    every_k:
        Per-slot sampling period for :meth:`slot_sample`; every
        ``every_k``-th slot is recorded (1 = every slot, 0 = series off
        while counters stay on).
    timed:
        Enable wall-time measurement (phase timers in the kernel and the
        :meth:`timer` context); wall-times live in the quarantined
        :meth:`walltimes` section, never in :meth:`snapshot`.
    """

    __slots__ = ("every_k", "timed", "counters", "gauges", "hists",
                 "series", "times", "_clock")
    enabled = True

    def __init__(self, every_k: int = 1, timed: bool = False,
                 clock=time.perf_counter):
        if every_k < 0:
            raise ValueError(f"every_k must be >= 0, got {every_k}")
        self.every_k = int(every_k)
        self.timed = bool(timed)
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        # name -> [count, total, min, max, {bucket: count}]
        self.hists: Dict[str, list] = {}
        self.series: List[tuple] = []
        self.times: Dict[str, float] = {}
        self._clock = clock

    # -- deterministic instruments ----------------------------------------

    def counter(self, name: str, inc: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + inc

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        h = self.hists.get(name)
        if h is None:
            h = [0, 0.0, value, value, {}]
            self.hists[name] = h
        h[0] += 1
        h[1] += value
        if value < h[2]:
            h[2] = value
        if value > h[3]:
            h[3] = value
        b = _bucket(value)
        h[4][b] = h[4].get(b, 0) + 1

    def slot_sample(self, slot: int, lane: int, voq: int, cross: int,
                    out: int, matched: int, arrived: int, sent: int,
                    rejected: int, preempted: int) -> None:
        self.series.append((slot, lane, voq, cross, out, matched,
                            arrived, sent, rejected, preempted))

    # -- quarantined wall-times -------------------------------------------

    def add_time(self, name: str, seconds: float) -> None:
        self.times[name] = self.times.get(name, 0.0) + seconds

    @contextmanager
    def timer(self, name: str):
        """Measure a block's wall time into the quarantined section."""
        t0 = self._clock()
        try:
            yield
        finally:
            self.add_time(name, self._clock() - t0)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The deterministic sections only (no wall-times): safe to embed
        in sweep payloads, cache on disk, and byte-diff across worker
        counts."""
        return {
            "version": SNAPSHOT_VERSION,
            "every_k": self.every_k,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: {
                    "count": h[0], "sum": h[1], "min": h[2], "max": h[3],
                    "buckets": {str(k): v for k, v in sorted(h[4].items())},
                }
                for name, h in sorted(self.hists.items())
            },
            "series": [list(s) for s in self.series],
        }

    def walltimes(self) -> Dict[str, float]:
        """The non-deterministic section: accumulated wall-times, kept
        out of :meth:`snapshot` so deterministic artifacts never carry
        machine-speed noise."""
        return dict(sorted(self.times.items()))

    def merge_snapshot(self, snap: Dict[str, object]) -> None:
        """Fold another recorder's deterministic snapshot into this one
        (series appended in call order — callers are responsible for a
        deterministic merge order, e.g. sweep-point order)."""
        for name, value in snap.get("counters", {}).items():
            self.counter(name, value)
        self.gauges.update(snap.get("gauges", {}))
        for name, h in snap.get("histograms", {}).items():
            mine = self.hists.get(name)
            if mine is None:
                mine = [0, 0.0, h["min"], h["max"], {}]
                self.hists[name] = mine
            mine[0] += h["count"]
            mine[1] += h["sum"]
            mine[2] = min(mine[2], h["min"])
            mine[3] = max(mine[3], h["max"])
            for b, c in h.get("buckets", {}).items():
                b = int(b)
                mine[4][b] = mine[4].get(b, 0) + c
        for row in snap.get("series", []):
            self.series.append(tuple(row))


def merge_snapshots(snaps: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Deterministically merge snapshots (in iteration order) into one."""
    out = InMemoryRecorder(every_k=0)
    every = 0
    for snap in snaps:
        out.merge_snapshot(snap)
        every = max(every, int(snap.get("every_k", 0)))
    out.every_k = every
    return out.snapshot()
