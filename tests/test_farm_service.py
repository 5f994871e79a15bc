"""The farm job queue, serve loop, kill/resume semantics, and CLI."""

import json
import os
from functools import partial

import pytest

from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.farm import JOB_STATES, JobQueue, build_job, serve
from repro.parallel import (
    KILL_AFTER_ENV,
    SweepExecutor,
    SweepKilled,
    SweepPoint,
)
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.values import uniform_values


def make_points(n=6, slots=10, factory=partial(PGPolicy, beta=2.0)):
    config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
    return [
        SweepPoint(
            model="cioq", config=config,
            trace=BernoulliTraffic(
                3, 3, load=1.2, value_model=uniform_values(1, 20)
            ).generate(slots, seed=seed),
            policy_factory=factory, seed=seed,
            tag={"seed": seed})
        for seed in range(n)
    ]


class TestJobQueue:
    def test_submit_claim_complete_lifecycle(self, tmp_path):
        q = JobQueue(str(tmp_path / "q"))
        jid = q.submit(build_job(scenario="smoke-bernoulli"))
        assert jid == "job-000001"
        assert q.counts() == {"queued": 1, "running": 0, "done": 0,
                              "failed": 0}
        job = q.claim_next()
        assert job["id"] == jid and job["scenario"] == "smoke-bernoulli"
        assert q.counts()["running"] == 1
        q.complete(jid, {"ok": True})
        assert q.counts()["done"] == 1
        assert q.jobs("done")[0]["result"] == {"ok": True}
        assert q.claim_next() is None

    def test_fifo_order_and_sequential_ids(self, tmp_path):
        q = JobQueue(str(tmp_path / "q"))
        ids = [q.submit(build_job(scenario=f"s{i}")) for i in range(3)]
        assert ids == ["job-000001", "job-000002", "job-000003"]
        assert [q.claim_next()["id"] for _ in range(3)] == ids

    def test_fail_records_error(self, tmp_path):
        q = JobQueue(str(tmp_path / "q"))
        jid = q.submit(build_job(scenario="x"))
        q.claim_next()
        q.fail(jid, "ValueError: boom")
        assert q.jobs("failed")[0]["error"] == "ValueError: boom"

    def test_requeue_stale_recovers_running_jobs(self, tmp_path):
        q = JobQueue(str(tmp_path / "q"))
        jid = q.submit(build_job(scenario="x"))
        q.claim_next()
        assert q.depth() == 0
        assert q.requeue_stale() == [jid]
        assert q.depth() == 1

    def test_states_cover_directories(self, tmp_path):
        q = JobQueue(str(tmp_path / "q"))
        for state in JOB_STATES:
            assert q.jobs(state) == []

    def test_build_job_needs_exactly_one_source(self):
        with pytest.raises(ValueError):
            build_job()
        with pytest.raises(ValueError):
            build_job(scenario="a", spec_dict={"name": "b"})

    @pytest.mark.parametrize("mode", ["magic", "windowed"])
    def test_build_job_rejects_bad_opt_mode(self, mode):
        with pytest.raises(ValueError, match="opt mode"):
            build_job(scenario="smoke-bernoulli", opt_mode=mode)

    def test_submit_publishes_whole_jobs(self, tmp_path, monkeypatch):
        """A server polling while ``submit`` is still writing sees no
        job (not an empty file it would strand in ``running/``), and
        the job is claimable in full once ``submit`` returns."""
        import repro.farm.jobs as jobs

        q = JobQueue(str(tmp_path / "q"))
        real_dump = jobs.json.dump
        mid_write = []

        def racing_dump(obj, fh, **kwargs):
            mid_write.append(q.claim_next())
            real_dump(obj, fh, **kwargs)

        monkeypatch.setattr(jobs.json, "dump", racing_dump)
        jid = q.submit(build_job(scenario="smoke-bernoulli"))
        monkeypatch.undo()
        assert mid_write == [None]
        assert q.counts()["running"] == 0
        job = q.claim_next()
        assert job == {"id": jid, "opt_mode": "exact",
                       "scenario": "smoke-bernoulli"}
        assert sorted(os.listdir(tmp_path / "q" / "queue")) == []

    def test_finish_publishes_whole_records(self, tmp_path, monkeypatch):
        """``done/`` and ``failed/`` records appear only once written in
        full, and no temp file stays behind."""
        import repro.farm.jobs as jobs

        root = tmp_path / "q"
        q = JobQueue(str(root))
        done = q.submit(build_job(scenario="a"))
        failed = q.submit(build_job(scenario="b"))
        q.claim_next()
        q.claim_next()
        real_dump = jobs.json.dump
        published = []

        def watching_dump(obj, fh, **kwargs):
            published.append(sorted(
                name for state in ("done", "failed")
                for name in os.listdir(root / state)
                if name.endswith(".json")))
            real_dump(obj, fh, **kwargs)

        monkeypatch.setattr(jobs.json, "dump", watching_dump)
        q.complete(done, {"ok": True})
        q.fail(failed, "boom")
        monkeypatch.undo()
        assert published == [[], [f"{done}.json"]]
        for state in ("queue", "running", "done", "failed"):
            names = os.listdir(root / state)
            assert all(n.endswith(".json") for n in names), names
        assert q.counts() == {"queued": 0, "running": 0, "done": 1,
                              "failed": 1}


class TestSweepKillResume:
    """Fault-inject a kill at the first task boundary at or past N
    published points, then resume incrementally to payloads
    byte-identical to a fresh serial run."""

    def test_kill_then_resume_bit_identical(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "store")
        # Two policy groups of 3 points: two batch tasks, so the kill
        # after 3 points lands on the boundary between them.
        points = make_points(3) + make_points(3, factory=GMPolicy)
        serial = SweepExecutor().run(points)

        monkeypatch.setenv(KILL_AFTER_ENV, "3")
        ex = SweepExecutor(cache_dir=cache_dir)
        with pytest.raises(SweepKilled):
            ex.run(points)

        monkeypatch.delenv(KILL_AFTER_ENV)
        resumed = SweepExecutor(cache_dir=cache_dir)
        payloads = resumed.run(points)
        # The three points of the published task resume from the store...
        assert (resumed.cache_hits, resumed.cache_misses) == (3, 3)
        # ...and the assembled result is exactly the serial one.
        assert payloads == serial
        assert (json.dumps(payloads, sort_keys=True)
                == json.dumps(serial, sort_keys=True))

    def test_killed_run_leaves_no_claims(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "store")
        points = make_points(4)
        monkeypatch.setenv(KILL_AFTER_ENV, "2")
        ex = SweepExecutor(cache_dir=cache_dir)
        with pytest.raises(SweepKilled):
            ex.run(points)
        assert ex.store.stats()["claims"] == 0  # released on the way out


class TestServeLoop:
    def test_serve_drains_queue_and_reuses_store(self, tmp_path):
        queue_root = str(tmp_path / "q")
        q = JobQueue(queue_root)
        q.submit(build_job(scenario="smoke-bernoulli"))
        q.submit(build_job(scenario="smoke-bernoulli"))
        summary = serve(queue_root, out_dir=str(tmp_path / "results"),
                        cache_dir=str(tmp_path / "store"), max_jobs=2)
        assert summary["served"] == 2 and summary["failed"] == 0
        # The second identical job is served entirely from the store.
        assert q.counts()["done"] == 2
        second = q.jobs("done")[1]["result"]
        assert second["store_misses"] == 0 and second["store_hits"] > 0

    def test_failed_job_isolated(self, tmp_path):
        queue_root = str(tmp_path / "q")
        q = JobQueue(queue_root)
        q.submit(build_job(scenario="no-such-scenario"))
        q.submit(build_job(scenario="smoke-bernoulli"))
        summary = serve(queue_root, out_dir=str(tmp_path / "results"),
                        max_jobs=2)
        assert summary["failed"] == 1 and summary["served"] == 1
        assert q.counts() == {"queued": 0, "running": 0, "done": 1,
                              "failed": 1}
        assert "no-such-scenario" in q.jobs("failed")[0]["error"]

    def test_serve_without_recorder_keeps_no_timings(self, tmp_path,
                                                     monkeypatch):
        """Without a recorder the server drains the executor's per-point
        ledger after every job: three jobs leave no per-point timing."""
        import repro.farm.service as service

        executors = []

        class Watched(SweepExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                executors.append(self)

        monkeypatch.setattr(service, "SweepExecutor", Watched)
        queue_root = str(tmp_path / "q")
        q = JobQueue(queue_root)
        for seeds in ([0, 1], [2, 3], [4, 5]):
            q.submit(build_job(scenario="smoke-bernoulli", seeds=seeds))
        summary = serve(queue_root, out_dir=str(tmp_path / "results"),
                        cache_dir=str(tmp_path / "store"), max_jobs=3)
        assert summary["served"] == 3 and summary["store_misses"] == 12
        assert summary["timings"] == []
        assert [ex.timings for ex in executors] == [[]]

    def test_serve_with_recorder_keeps_every_timing(self, tmp_path):
        from repro.obs import InMemoryRecorder

        queue_root = str(tmp_path / "q")
        q = JobQueue(queue_root)
        for seeds in ([0, 1], [2, 3]):
            q.submit(build_job(scenario="smoke-bernoulli", seeds=seeds))
        rec = InMemoryRecorder(every_k=0, timed=True)
        summary = serve(queue_root, out_dir=str(tmp_path / "results"),
                        max_jobs=2, metrics=rec)
        assert len(summary["timings"]) == 8
        assert {tuple(sorted(t)) for t in summary["timings"]} == {
            ("elapsed", "index", "pid", "policy", "seed", "trace")}

    def test_idle_timeout_returns(self, tmp_path):
        summary = serve(str(tmp_path / "q"), idle_timeout=0.05, poll=0.01)
        assert summary["served"] == 0

    def test_farm_metrics_recorded(self, tmp_path):
        from repro.obs import InMemoryRecorder

        queue_root = str(tmp_path / "q")
        JobQueue(queue_root).submit(build_job(scenario="smoke-bernoulli"))
        rec = InMemoryRecorder(every_k=0, timed=True)
        serve(queue_root, out_dir=str(tmp_path / "results"),
              cache_dir=str(tmp_path / "store"), max_jobs=1, metrics=rec)
        snap = rec.snapshot()
        assert snap["counters"]["farm_jobs_total"] == 1
        assert snap["counters"]["farm_points_executed_total"] > 0
        assert snap["gauges"]["farm_queue_depth"] == 0
        assert rec.walltimes().get("worker_busy_seconds", 0) > 0

    def test_killed_serve_resumes_byte_identical(self, tmp_path,
                                                 monkeypatch):
        """Serve, die mid-job via fault injection, re-serve: the
        requeued job completes incrementally and its artifacts match a
        direct serial run byte for byte."""
        from repro.scenarios import get_scenario, run_scenario, write_artifacts

        queue_root = str(tmp_path / "q")
        JobQueue(queue_root).submit(build_job(scenario="smoke-bernoulli"))
        monkeypatch.setenv(KILL_AFTER_ENV, "2")
        with pytest.raises(SweepKilled):
            serve(queue_root, out_dir=str(tmp_path / "farm"),
                  cache_dir=str(tmp_path / "store"), max_jobs=1)
        monkeypatch.delenv(KILL_AFTER_ENV)
        assert JobQueue(queue_root).counts()["running"] == 1

        summary = serve(queue_root, out_dir=str(tmp_path / "farm"),
                        cache_dir=str(tmp_path / "store"), max_jobs=1)
        assert summary["served"] == 1
        assert summary["store_hits"] == 2  # the pre-kill publishes

        serial_dir = str(tmp_path / "serial")
        run = run_scenario(get_scenario("smoke-bernoulli"))
        write_artifacts(run, serial_dir)
        base = os.path.join(serial_dir, "smoke-bernoulli")
        farm = os.path.join(str(tmp_path / "farm"), "smoke-bernoulli")
        for name in sorted(os.listdir(base)):
            with open(os.path.join(base, name), "rb") as fh:
                expect = fh.read()
            with open(os.path.join(farm, name), "rb") as fh:
                assert fh.read() == expect, name


class TestFarmCLI:
    def test_submit_serve_status_gc(self, tmp_path, capsys):
        from repro.cli import main

        queue = str(tmp_path / "q")
        store = str(tmp_path / "store")
        out = str(tmp_path / "results")
        assert main(["submit", "smoke-bernoulli", "--queue", queue]) == 0
        assert "submitted job-000001" in capsys.readouterr().out
        assert main(["serve", "--queue", queue, "--out", out,
                     "--cache-dir", store, "--max-jobs", "1"]) == 0
        assert "served 1 job(s)" in capsys.readouterr().out
        assert main(["farm", "status", "--queue", queue,
                     "--cache-dir", store]) == 0
        status_out = capsys.readouterr().out
        assert "done" in status_out and "result store" in status_out
        assert main(["farm", "gc", "--cache-dir", store]) == 0
        assert "store gc" in capsys.readouterr().out

    def test_status_of_missing_queue(self, tmp_path, capsys):
        """Inspecting a queue never creates it: a mistyped ``--queue``
        exits 1 instead of reporting four empty states."""
        from repro.cli import main

        queue = tmp_path / "typo"
        with pytest.raises(SystemExit) as exc:
            main(["farm", "status", "--queue", str(queue)])
        assert exc.value.code == f"no farm queue at {queue}"
        assert capsys.readouterr().out == ""
        assert not queue.exists()

    def test_gc_reports_each_bucket(self, tmp_path, capsys):
        from repro.cli import main
        from repro.farm import ResultStore
        from repro.parallel import CACHE_VERSION

        store = str(tmp_path / "store")
        ResultStore(store, CACHE_VERSION).put(("aa" + "0" * 62,), [{"b": 1}])
        ResultStore(store, CACHE_VERSION - 1).put(("bb" + "0" * 62,),
                                                  [{"b": 2}])
        assert main(["farm", "gc", "--cache-dir", store]) == 0
        rows = capsys.readouterr().out.splitlines()[3:]
        assert {tuple(row.split()) for row in rows if row.strip()} == {
            ("stale", "1"), ("corrupt", "0"), ("tmp", "0"),
            ("claims", "0"), ("kept", "1"),
        }

    @pytest.mark.parametrize("argv", [
        ["no-such-scenario"],
        ["smoke-bernoulli", "--slots", "0"],
        ["smoke-bernoulli", "--replicates", "1"],
        ["smoke-bernoulli", "--seeds", "-3"],
        ["smoke-bernoulli", "no-such-scenario"],
    ])
    def test_submit_rejects_jobs_that_cannot_run(self, argv, tmp_path,
                                                 capsys):
        """Every named job is resolved before any is queued: one that
        ``scenarios run`` would refuse exits 1 with one ``bad job``
        line and leaves the queue empty."""
        from repro.cli import main

        queue = str(tmp_path / "q")
        with pytest.raises(SystemExit) as exc:
            main(["submit", *argv, "--queue", queue])
        assert str(exc.value.code).startswith("bad job: ")
        assert len(str(exc.value.code).splitlines()) == 1
        assert capsys.readouterr().out == ""
        assert JobQueue(queue).counts() == {
            "queued": 0, "running": 0, "done": 0, "failed": 0}

    def test_serve_surfaces_failed_jobs(self, tmp_path, capsys):
        from repro.cli import main

        queue = str(tmp_path / "q")
        assert main(["submit", "smoke-bernoulli", "--queue", queue]) == 0
        capsys.readouterr()
        JobQueue(queue).submit(build_job(scenario="missing-scenario"))
        assert main(["serve", "--queue", queue,
                     "--out", str(tmp_path / "results"),
                     "--max-jobs", "2"]) == 1
