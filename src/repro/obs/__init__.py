"""repro.obs — zero-overhead-when-off observability.

The telemetry substrate for the experiment farm: metrics recorders
(:mod:`repro.obs.recorder`), provenance manifests
(:mod:`repro.obs.manifest`) and export sinks (:mod:`repro.obs.sinks`).

Design contract (pinned by ``tests/test_obs.py``,
``tests/test_backend_equivalence.py`` and ``benchmarks/bench_obs.py``):

* metrics **off** (``metrics=None`` or :data:`NULL_METRICS`) costs
  nothing measurable (<= 5% budget) and changes no payload byte;
* metrics **on** collects deterministic counters/series that merge
  byte-identically for any worker count;
* wall-times are quarantined in a separate non-deterministic section
  and never enter deterministic artifacts.

This package imports no third-party modules (it must work in the
numpy-free CI job alongside the reference backend).
"""

from .manifest import (
    MANIFEST_VERSION,
    build_manifest,
    read_manifest,
    spec_hash,
    write_manifest,
)
from .recorder import (
    METRIC_CATALOG,
    NULL_METRICS,
    SERIES_FIELDS,
    SNAPSHOT_VERSION,
    InMemoryRecorder,
    MetricsRecorder,
    NullRecorder,
    merge_snapshots,
    resolve,
)
from .sinks import (
    METRICS_FILENAME,
    TIMINGS_FILENAME,
    iter_jsonl,
    prometheus_text,
    read_jsonl,
    snapshot_events,
    snapshot_from_events,
    write_jsonl,
    write_walltimes,
)

__all__ = [
    # recorder
    "MetricsRecorder",
    "NullRecorder",
    "InMemoryRecorder",
    "NULL_METRICS",
    "METRIC_CATALOG",
    "SERIES_FIELDS",
    "SNAPSHOT_VERSION",
    "merge_snapshots",
    "resolve",
    # manifest
    "MANIFEST_VERSION",
    "build_manifest",
    "write_manifest",
    "read_manifest",
    "spec_hash",
    # sinks
    "METRICS_FILENAME",
    "TIMINGS_FILENAME",
    "snapshot_events",
    "snapshot_from_events",
    "write_jsonl",
    "iter_jsonl",
    "read_jsonl",
    "prometheus_text",
    "write_walltimes",
]
