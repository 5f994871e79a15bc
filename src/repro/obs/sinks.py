"""Metric sinks: JSONL stream and Prometheus-style text export.

Two on-disk/export shapes for a recorder snapshot:

* **JSONL** (``write_jsonl`` / ``iter_jsonl``) — one self-describing
  event per line: counters, gauges, then the per-slot series in
  slot order.  Deterministic (built from ``snapshot()``,
  which excludes wall-times), append-friendly, and streamable — the
  format ``repro obs tail`` reads.
* **Prometheus text** (``prometheus_text``) — the ``# HELP`` /
  ``# TYPE`` exposition format, for scraping a results dir or pasting
  into a dashboard.  Series samples are exported as the *last* sample's
  gauges (Prometheus has no native series type).

Wall-times are handled separately: ``write_walltimes`` quarantines them
in ``timings.json``, which CI byte-diff jobs must exclude (they never
appear in ``metrics.jsonl`` or the Prometheus export).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List

from .recorder import METRIC_CATALOG, SERIES_FIELDS, SNAPSHOT_VERSION

#: Default metrics stream filename inside a results dir.
METRICS_FILENAME = "metrics.jsonl"
#: Quarantined wall-time ledger filename (non-deterministic; never
#: byte-diffed).
TIMINGS_FILENAME = "timings.json"


def snapshot_events(snapshot: Dict[str, object]) -> Iterator[Dict[str, object]]:
    """Flatten a deterministic snapshot into a stream of JSONL events."""
    yield {
        "event": "meta",
        "version": snapshot.get("version", SNAPSHOT_VERSION),
        "every_k": snapshot.get("every_k", 0),
    }
    for name, value in snapshot.get("counters", {}).items():
        yield {"event": "counter", "name": name, "value": value}
    for name, value in snapshot.get("gauges", {}).items():
        yield {"event": "gauge", "name": name, "value": value}
    for row in snapshot.get("series", []):
        yield {"event": "sample", **dict(zip(SERIES_FIELDS, row))}


def write_jsonl(path: Path, snapshot: Dict[str, object]) -> Path:
    """Write a snapshot as a JSONL metrics stream (deterministic bytes:
    sorted keys, one event per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for event in snapshot_events(snapshot):
            fh.write(json.dumps(event, sort_keys=True,
                                separators=(",", ":")) + "\n")
    return path


def iter_jsonl(path: Path) -> Iterator[Dict[str, object]]:
    """Stream events back from a JSONL metrics file, skipping blanks."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def read_jsonl(path: Path) -> List[Dict[str, object]]:
    """Materialize every event in a JSONL metrics file."""
    return list(iter_jsonl(path))


def snapshot_from_events(
    events: Iterator[Dict[str, object]]
) -> Dict[str, object]:
    """Rebuild a snapshot dict from a JSONL event stream — the inverse
    of :func:`snapshot_events` (``snapshot -> events -> snapshot`` is an
    exact round trip), so ``repro obs export`` can render Prometheus
    text from a written ``metrics.jsonl``."""
    snap: Dict[str, object] = {
        "version": SNAPSHOT_VERSION,
        "every_k": 0,
        "counters": {},
        "gauges": {},
        "series": [],
    }
    for ev in events:
        kind = ev.get("event")
        if kind == "meta":
            snap["version"] = ev.get("version", SNAPSHOT_VERSION)
            snap["every_k"] = ev.get("every_k", 0)
        elif kind == "counter":
            snap["counters"][ev["name"]] = ev["value"]
        elif kind == "gauge":
            snap["gauges"][ev["name"]] = ev["value"]
        elif kind == "sample":
            snap["series"].append([ev[f] for f in SERIES_FIELDS])
    return snap


def _prom_name(name: str) -> str:
    return "repro_" + name.replace("-", "_").replace(".", "_")


def prometheus_text(snapshot: Dict[str, object]) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: List[str] = []

    def emit(name: str, kind: str, values: List[tuple]) -> None:
        prom = _prom_name(name)
        meta = METRIC_CATALOG.get(name)
        help_text = meta[1] if meta else name
        lines.append(f"# HELP {prom} {help_text}")
        lines.append(f"# TYPE {prom} {kind}")
        for labels, value in values:
            lines.append(f"{prom}{labels} {value:g}")

    for name, value in snapshot.get("counters", {}).items():
        emit(name, "counter", [("", float(value))])
    for name, value in snapshot.get("gauges", {}).items():
        emit(name, "gauge", [("", float(value))])
    series = snapshot.get("series", [])
    if series:
        last = dict(zip(SERIES_FIELDS, series[-1]))
        emit("queue_occupancy", "gauge", [
            ('{site="voq"}', float(last["voq"])),
            ('{site="cross"}', float(last["cross"])),
            ('{site="out"}', float(last["out"])),
        ])
        emit("matching_size", "gauge", [("", float(last["matched"]))])
    return "\n".join(lines) + "\n"


def write_walltimes(path: Path, walltimes: Dict[str, float],
                    extra: Dict[str, object] | None = None) -> Path:
    """Write the quarantined wall-time ledger (``timings.json``).

    Deliberately a *separate* file from all deterministic artifacts:
    byte-diff jobs compare results dirs excluding this filename.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: Dict[str, object] = {"walltimes_seconds": dict(sorted(walltimes.items()))}
    if extra:
        payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
