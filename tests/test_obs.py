"""Observability subsystem tests (``repro.obs``).

Pins the telemetry contract end to end:

* recorder semantics — the :class:`~repro.obs.NullRecorder` is inert,
  the :class:`~repro.obs.InMemoryRecorder` accumulates deterministic
  counters/gauges/histograms/series and quarantines wall-times outside
  :meth:`snapshot`;
* kernel integration — per-slot samples and flushed counters agree
  exactly with the run's :class:`SimulationResult` accounting, on the
  batch and the streaming entry points alike;
* executor observability — ``metrics_every`` payload snapshots merge
  byte-identically for any worker count and for cached vs fresh
  payloads, heartbeats fire, and the timing ledger is populated;
* sinks and surface — JSONL round trip, Prometheus rendering, manifest
  determinism, and the ``repro obs`` / ``--metrics`` CLI surface.

The core recorder/manifest/sink tests run without numpy (hand-built
traces through the reference kernel); the scenario-level tests skip in
the numpy-free environment like the rest of the suite.
"""

import json
import random

import pytest

from repro.core.gm import GMPolicy
from repro.obs import (
    METRIC_CATALOG,
    METRICS_FILENAME,
    NULL_METRICS,
    SERIES_FIELDS,
    SNAPSHOT_VERSION,
    TIMINGS_FILENAME,
    InMemoryRecorder,
    MetricsRecorder,
    NullRecorder,
    build_manifest,
    iter_jsonl,
    merge_snapshots,
    prometheus_text,
    read_jsonl,
    read_manifest,
    resolve,
    snapshot_events,
    snapshot_from_events,
    spec_hash,
    write_jsonl,
    write_manifest,
    write_walltimes,
)
from repro.parallel import SweepExecutor, SweepPoint, run_sweep_point
from repro.simulation.engine import run_cioq, run_cioq_streaming
from repro.switch.config import SwitchConfig
from repro.traffic.trace import Packet, Trace

CONFIG = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)


def _trace(n=3, slots=12, seed=0):
    """Deterministic hand-built trace (no numpy needed)."""
    rnd = random.Random(seed)
    packets = []
    pid = 0
    for t in range(slots):
        for src in range(n):
            for _ in range(rnd.choice((0, 1, 2))):
                packets.append(
                    Packet(pid, float(rnd.randint(1, 9)), t, src,
                           rnd.randrange(n))
                )
                pid += 1
    return Trace(packets, n, n, name=f"obs-test-{seed}", n_slots=slots)


# ---------------------------------------------------------------------------
# Recorder semantics
# ---------------------------------------------------------------------------

class TestRecorders:
    def test_null_recorder_is_inert(self):
        null = NullRecorder()
        assert null.enabled is False
        assert null.every_k == 0
        assert null.timed is False
        null.counter("runs_total")
        null.gauge("sweep_points_total", 3)
        null.observe("point_seconds", 1.5)
        null.slot_sample(0, 0, 1, 2, 3, 1, 4, 2, 0, 0)
        null.add_time("run_seconds", 0.1)
        with null.timer("phase_arrival_seconds"):
            pass

    def test_protocol_conformance(self):
        assert isinstance(NullRecorder(), MetricsRecorder)
        assert isinstance(InMemoryRecorder(), MetricsRecorder)

    def test_resolve(self):
        rec = InMemoryRecorder()
        assert resolve(None) is None
        assert resolve(NULL_METRICS) is None
        assert resolve(rec) is rec

    def test_counters_gauges_histograms(self):
        rec = InMemoryRecorder()
        rec.counter("runs_total")
        rec.counter("runs_total", 2)
        rec.gauge("sweep_points_total", 7)
        rec.observe("point_seconds", 3.0)
        rec.observe("point_seconds", 5.0)
        snap = rec.snapshot()
        assert snap["version"] == SNAPSHOT_VERSION
        assert snap["counters"]["runs_total"] == 3
        assert snap["gauges"]["sweep_points_total"] == 7
        hist = snap["histograms"]["point_seconds"]
        assert hist["count"] == 2
        assert hist["sum"] == 8.0
        assert hist["min"] == 3.0
        assert hist["max"] == 5.0

    def test_walltimes_quarantined(self):
        rec = InMemoryRecorder(timed=True)
        with rec.timer("phase_arrival_seconds"):
            pass
        rec.add_time("run_seconds", 0.25)
        snap = rec.snapshot()
        assert "walltimes" not in snap
        assert "run_seconds" not in str(snap)
        wt = rec.walltimes()
        assert wt["run_seconds"] == pytest.approx(0.25)
        assert wt["phase_arrival_seconds"] >= 0.0

    def test_series_shape(self):
        rec = InMemoryRecorder(every_k=1)
        rec.slot_sample(0, 2, 5, 1, 3, 2, 10, 4, 1, 0)
        snap = rec.snapshot()
        assert len(snap["series"]) == 1
        assert len(snap["series"][0]) == len(SERIES_FIELDS)
        row = dict(zip(SERIES_FIELDS, snap["series"][0]))
        assert row["slot"] == 0 and row["lane"] == 2 and row["voq"] == 5

    def test_merge_snapshots_deterministic(self):
        snaps = []
        for k in range(3):
            rec = InMemoryRecorder(every_k=2)
            rec.counter("runs_total")
            rec.counter("benefit_total", 10 * (k + 1))
            rec.slot_sample(k, k, 1, 0, 0, 1, 1, 1, 0, 0)
            snaps.append(rec.snapshot())
        merged = merge_snapshots(snaps)
        assert merged["counters"]["runs_total"] == 3
        assert merged["counters"]["benefit_total"] == 60
        assert [s[0] for s in merged["series"]] == [0, 1, 2]
        again = merge_snapshots([json.loads(json.dumps(s)) for s in snaps])
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            again, sort_keys=True)

    def test_metric_catalog_shape(self):
        for name, (kind, help_text) in METRIC_CATALOG.items():
            assert kind in {"counter", "gauge", "histogram", "series",
                            "timer"}, name
            assert help_text


# ---------------------------------------------------------------------------
# Kernel integration (reference backend; no numpy required)
# ---------------------------------------------------------------------------

class TestKernelMetrics:
    def test_counters_match_result_accounting(self):
        rec = InMemoryRecorder(every_k=1)
        result = run_cioq(GMPolicy(), CONFIG, _trace(), metrics=rec)
        snap = rec.snapshot()
        c = snap["counters"]
        assert c["runs_total"] == 1
        # slots_total counts *executed* slots: at least the arrival
        # window (plus drain), at most the hard horizon cap.
        assert 12 <= c["slots_total"] <= result.horizon
        assert c["slots_total"] == len(snap["series"])
        assert c["packets_arrived_total"] == result.n_arrived
        assert c["packets_sent_total"] == result.n_sent
        assert c["packets_rejected_total"] == result.n_rejected
        assert c["benefit_total"] == result.benefit

    def test_sampling_stride(self):
        trace = _trace()
        every = InMemoryRecorder(every_k=1)
        run_cioq(GMPolicy(), CONFIG, trace, metrics=every)
        strided = InMemoryRecorder(every_k=3)
        run_cioq(GMPolicy(), CONFIG, trace, metrics=strided)
        slots = [s[0] for s in strided.snapshot()["series"]]
        assert slots == [s[0] for s in every.snapshot()["series"]
                         if s[0] % 3 == 0]

    def test_counters_only_mode_has_no_series(self):
        rec = InMemoryRecorder(every_k=0)
        run_cioq(GMPolicy(), CONFIG, _trace(), metrics=rec)
        snap = rec.snapshot()
        assert snap["series"] == []
        assert snap["counters"]["runs_total"] == 1

    def test_null_metrics_changes_nothing(self):
        trace = _trace(seed=5)
        base = run_cioq(GMPolicy(), CONFIG, trace)
        off = run_cioq(GMPolicy(), CONFIG, trace, metrics=NULL_METRICS)
        assert base.benefit == off.benefit
        assert base.occupancy == off.occupancy

    def test_streaming_matches_batch_snapshot(self):
        trace = _trace(seed=3)
        batch_rec = InMemoryRecorder(every_k=2)
        run_cioq(GMPolicy(), CONFIG, trace, metrics=batch_rec)

        def source(t, switch):
            return [(p.src, p.dst, p.value) for p in trace.packets
                    if p.arrival == t]

        stream_rec = InMemoryRecorder(every_k=2)
        run_cioq_streaming(GMPolicy(), CONFIG, source, trace.n_slots,
                           metrics=stream_rec)
        assert json.dumps(batch_rec.snapshot(), sort_keys=True) == \
            json.dumps(stream_rec.snapshot(), sort_keys=True)

    def test_timed_run_records_phase_walltimes(self):
        rec = InMemoryRecorder(every_k=0, timed=True)
        run_cioq(GMPolicy(), CONFIG, _trace(), metrics=rec)
        wt = rec.walltimes()
        for name in ("phase_arrival_seconds", "phase_schedule_seconds",
                     "phase_transmit_seconds", "run_seconds"):
            assert wt[name] >= 0.0


# ---------------------------------------------------------------------------
# Executor observability
# ---------------------------------------------------------------------------

def _points(n_points=4):
    return [
        SweepPoint(model="cioq", config=CONFIG, trace=_trace(seed=s),
                   policy_factory=GMPolicy, seed=s)
        for s in range(n_points)
    ]


class TestExecutorObservability:
    def test_payload_embeds_obs_snapshot(self):
        payload = run_sweep_point(_points(1)[0], metrics_every=2)
        assert "obs" in payload
        assert payload["obs"]["counters"]["runs_total"] == 1

    def test_uninstrumented_payload_has_no_obs(self):
        payload = run_sweep_point(_points(1)[0])
        assert "obs" not in payload

    def test_merged_obs_serial_vs_parallel_identical(self):
        points = _points()
        serial = SweepExecutor(workers=0, metrics_every=2)
        serial.run(points)
        parallel = SweepExecutor(workers=2, metrics_every=2)
        parallel.run(points)
        s, p = serial.merged_obs(), parallel.merged_obs()
        assert json.dumps(s, sort_keys=True) == json.dumps(p,
                                                           sort_keys=True)
        assert s["gauges"]["sweep_points_total"] == len(points)

    def test_merged_obs_none_when_uninstrumented(self):
        ex = SweepExecutor(workers=0)
        ex.run(_points(2))
        assert ex.merged_obs() is None

    def test_timing_ledger(self):
        ex = SweepExecutor(workers=0, metrics_every=0)
        points = _points(3)
        ex.run(points)
        assert len(ex.timings) == 3
        for entry in ex.timings:
            assert entry["elapsed"] >= 0.0
            assert isinstance(entry["pid"], int)
            assert entry["policy"].endswith("GMPolicy")

    def test_progress_events(self):
        events = []
        ex = SweepExecutor(workers=0, metrics_every=0,
                           progress=events.append)
        ex.run(_points(2))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "cache"
        assert kinds.count("point") == 2
        assert kinds[-1] == "done"

    def test_cached_and_fresh_obs_identical(self, tmp_path):
        points = _points(3)
        cold = SweepExecutor(workers=0, cache_dir=str(tmp_path),
                             metrics_every=2)
        cold.run(points)
        assert cold.cache_misses == 3
        warm = SweepExecutor(workers=0, cache_dir=str(tmp_path),
                             metrics_every=2)
        warm.run(points)
        assert warm.cache_hits == 3
        assert json.dumps(cold.merged_obs(), sort_keys=True) == \
            json.dumps(warm.merged_obs(), sort_keys=True)

    def test_metrics_cache_keys_disjoint_from_plain(self, tmp_path):
        points = _points(2)
        plain = SweepExecutor(workers=0, cache_dir=str(tmp_path))
        plain.run(points)
        instrumented = SweepExecutor(workers=0, cache_dir=str(tmp_path),
                                     metrics_every=2)
        instrumented.run(points)
        # Instrumented payloads must not be served from uninstrumented
        # cache entries (and vice versa).
        assert instrumented.cache_hits == 0
        assert instrumented.cache_misses == 2

    def test_replication_accumulates_across_runs(self):
        ex = SweepExecutor(workers=0, metrics_every=0)
        ex.run(_points(2))
        ex.run(_points(2))
        assert ex.merged_obs()["counters"]["runs_total"] == 4
        assert len(ex.timings) == 4


# ---------------------------------------------------------------------------
# Sinks: JSONL, Prometheus, wall-time quarantine
# ---------------------------------------------------------------------------

def _sample_snapshot():
    rec = InMemoryRecorder(every_k=1)
    run_cioq(GMPolicy(), CONFIG, _trace(seed=9), metrics=rec)
    return rec.snapshot()


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        snap = _sample_snapshot()
        path = write_jsonl(tmp_path / METRICS_FILENAME, snap)
        back = snapshot_from_events(iter_jsonl(path))
        assert json.dumps(back, sort_keys=True) == json.dumps(
            snap, sort_keys=True)

    def test_jsonl_deterministic_bytes(self, tmp_path):
        snap = _sample_snapshot()
        a = write_jsonl(tmp_path / "a.jsonl", snap).read_bytes()
        b = write_jsonl(tmp_path / "b.jsonl",
                        json.loads(json.dumps(snap))).read_bytes()
        assert a == b

    def test_event_stream_order(self):
        events = list(snapshot_events(_sample_snapshot()))
        assert events[0]["event"] == "meta"
        kinds = [e["event"] for e in events]
        assert kinds.index("counter") < kinds.index("sample")

    def test_read_jsonl(self, tmp_path):
        snap = _sample_snapshot()
        path = write_jsonl(tmp_path / METRICS_FILENAME, snap)
        events = read_jsonl(path)
        assert events[0]["version"] == SNAPSHOT_VERSION
        samples = [e for e in events if e["event"] == "sample"]
        assert len(samples) == len(snap["series"])

    def test_prometheus_text(self):
        text = prometheus_text(_sample_snapshot())
        assert "# HELP repro_runs_total" in text
        assert "# TYPE repro_runs_total counter" in text
        assert "repro_runs_total 1" in text
        assert 'repro_queue_occupancy{site="voq"}' in text
        assert text.endswith("\n")

    def test_walltimes_file(self, tmp_path):
        path = write_walltimes(tmp_path / TIMINGS_FILENAME,
                               {"run_seconds": 1.5},
                               extra={"cache_hits": 2})
        payload = json.loads(path.read_text())
        assert payload["walltimes_seconds"]["run_seconds"] == 1.5
        assert payload["cache_hits"] == 2


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

class TestManifest:
    def test_build_and_round_trip(self, tmp_path):
        manifest = build_manifest(kind="scenario", name="x",
                                  spec={"a": 1}, seeds=(3, 1, 1),
                                  backend="fast", opt_mode="bounds")
        assert manifest["manifest_version"] == 2
        assert manifest["opt_mode"] == "bounds"
        assert "opt_window" not in manifest
        assert manifest["seeds"] == [1, 3]
        assert manifest["spec_sha256"] == spec_hash({"a": 1})
        write_manifest(tmp_path, manifest)
        assert read_manifest(tmp_path) == manifest

    def test_no_timestamps_or_worker_counts(self):
        manifest = build_manifest(kind="sweep", name="y")
        text = json.dumps(manifest).lower()
        for forbidden in ("timestamp", "workers", "hostname", "date"):
            assert forbidden not in text

    def test_spec_hash_stable(self):
        assert spec_hash({"b": 2, "a": 1}) == spec_hash({"a": 1, "b": 2})
        assert spec_hash({"a": 1}) != spec_hash({"a": 2})


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCLI:
    @pytest.fixture(autouse=True)
    def _numpy(self):
        pytest.importorskip("numpy")

    def test_scenarios_run_metrics_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "results"
        rc = main(["scenarios", "run", "smoke-bernoulli",
                   "--metrics-every", "4", "--out", str(out)])
        assert rc == 0
        target = out / "smoke-bernoulli"
        for name in ("result.json", "manifest.json", METRICS_FILENAME,
                     TIMINGS_FILENAME):
            assert (target / name).exists(), name
        manifest = read_manifest(target)
        assert manifest["kind"] == "scenario"
        snap = snapshot_from_events(iter_jsonl(target / METRICS_FILENAME))
        assert snap["counters"]["runs_total"] > 0
        assert "sweep_points_total" in snap["gauges"]

    def test_obs_export_and_tail(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "results"
        main(["scenarios", "run", "smoke-bernoulli",
              "--metrics", "--out", str(out)])
        capsys.readouterr()
        target = str(out / "smoke-bernoulli")
        assert main(["obs", "export", target]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_runs_total counter" in text
        assert main(["obs", "tail", target, "-n", "2",
                     "--event", "counter"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(li)["event"] == "counter" for li in lines)

    @pytest.mark.parametrize("argv", [
        ["scenarios", "run", "smoke-bernoulli", "--out"],
        ["sweep", "--policies", "gm", "--loads", "1.0", "--seeds", "1",
         "--slots", "10", "--opt", "--metrics-out"],
    ], ids=["scenarios-run", "sweep"])
    def test_every_written_name_is_catalogued(self, argv, tmp_path, capsys):
        """Every metric name a ``--metrics-every 1`` run writes, to
        metrics.jsonl and to timings.json's walltimes_seconds, is in
        METRIC_CATALOG (and so documented)."""
        from repro.cli import main

        assert main([*argv, str(tmp_path), "--metrics-every", "1"]) == 0
        (metrics,) = tmp_path.rglob(METRICS_FILENAME)
        (timings,) = tmp_path.rglob(TIMINGS_FILENAME)
        names = {ev["name"] for ev in iter_jsonl(metrics) if "name" in ev}
        walltimes = json.loads(timings.read_text())["walltimes_seconds"]
        assert names and walltimes
        assert names | set(walltimes) <= set(METRIC_CATALOG)

    def test_sweep_metrics_prometheus_stdout(self, capsys):
        from repro.cli import main

        rc = main(["sweep", "--policies", "gm", "--loads", "1.0",
                   "--seeds", "1", "--slots", "10", "--metrics"])
        assert rc == 0
        assert "repro_runs_total" in capsys.readouterr().out

    def test_metrics_every_validation(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "--policies", "gm", "--loads", "1.0",
                  "--seeds", "1", "--slots", "10",
                  "--metrics-every", "0"])
