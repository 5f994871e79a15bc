"""The content-addressed result store (repro.farm.store): immutable
packs, one lease per run, compaction, and the exactly-once contract
concurrent executors keep through it."""

import json
import multiprocessing
import os
import signal
import time
from functools import partial

import pytest

import repro.farm.store as store_mod
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.farm import ResultStore
from repro.parallel import CACHE_VERSION, EXEC_LOG_ENV, SweepExecutor, SweepPoint
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.values import uniform_values


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"), CACHE_VERSION)


def slow_pg(beta):
    """A PG policy built 10 ms late: widens every race window."""
    time.sleep(0.01)
    return PGPolicy(beta=beta)


def make_points(n=6, slots=10, factory=partial(PGPolicy, beta=2.0)):
    config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
    points = []
    for seed in range(n):
        trace = BernoulliTraffic(
            3, 3, load=1.2, value_model=uniform_values(1, 20)
        ).generate(slots, seed=seed)
        points.append(
            SweepPoint(model="cioq", config=config, trace=trace,
                       policy_factory=factory, seed=seed, tag={"seed": seed}))
    return points


def key(prefix, fill):
    return prefix + fill * 62


def packs(store):
    return sorted(os.listdir(store.packs))


def _dead_lease(store, keys, name="dead"):
    """A lease file whose lock nobody holds: what a holder that died
    before releasing leaves."""
    os.makedirs(store.leases, exist_ok=True)
    path = os.path.join(store.leases, f"{name}.lease")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(keys))
    return path


def _abandon(lease):
    """Close a lease's descriptor without unlinking its file, as a
    holder's death would (this process, the holder, lives on)."""
    store_mod._HELD.discard(lease.fd)
    os.close(lease.fd)
    lease.fd = None


class TestPacks:
    def test_round_trip_and_pack_layout(self, store):
        k = key("ab", "0")
        path = store.put((k,), [{"benefit": 7}])
        assert store.get((k,)) == {k: {"benefit": 7}}
        assert os.path.dirname(path) == store.packs
        assert path.endswith(".pack")
        # Header line with the version and the keys, one payload a line.
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"cache_version": CACHE_VERSION, "keys": [k]}, {"benefit": 7}]
        # A fresh store reads the same payload from disk.
        fresh = ResultStore(store.root, CACHE_VERSION)
        assert fresh.get((k, key("cd", "0"))) == {k: {"benefit": 7}}

    def test_same_chunk_publishes_same_pack(self, store):
        a, b = key("aa", "1"), key("bb", "1")
        first = store.put((a, b), [{"v": 1}, {"v": 2}])
        with open(first, "rb") as fh:
            before = fh.read()
        # The same chunk, listed in another order: same name, same bytes.
        second = store.put((b, a), [{"v": 2}, {"v": 1}])
        assert second == first
        with open(first, "rb") as fh:
            assert fh.read() == before
        assert packs(store) == [os.path.basename(first)]
        assert store.get((a, b)) == {a: {"v": 1}, b: {"v": 2}}

    def test_absent_and_corrupt_miss(self, store):
        k = key("cd", "1")
        assert store.get((k,)) == {}
        path = store.put((k,), [{"benefit": 1}])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{torn")
        assert ResultStore(store.root, CACHE_VERSION).get((k,)) == {}

    def test_torn_pack_is_a_miss(self, store):
        a, b = key("ce", "1"), key("cf", "1")
        path = store.put((a, b), [{"v": 1}, {"v": 2}])
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines[:2]))  # the last payload line is gone
        assert ResultStore(store.root, CACHE_VERSION).get((a, b)) == {}

    def test_vanished_pack_is_a_miss(self, store):
        k = key("d0", "1")
        path = store.put((k,), [{"v": 1}])
        reader = ResultStore(store.root, CACHE_VERSION)
        assert reader.get((k,)) == {k: {"v": 1}}
        os.unlink(path)
        assert reader.get((k,)) == {}

    def test_flat_and_per_key_files_are_misses(self, store):
        k = key("ef", "2")
        os.makedirs(os.path.join(store.root, k[:2]), exist_ok=True)
        for path in (os.path.join(store.root, f"{k}.json"),
                     os.path.join(store.root, k[:2], f"{k}.json")):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"cache_version": CACHE_VERSION,
                           "payload": {"benefit": 3}}, fh)
        assert store.get((k,)) == {}

    def test_miss_creates_nothing(self, store):
        assert store.get((key("ab", "4"),)) == {}
        assert not os.path.exists(store.root)

    def test_stale_version_misses_cleanly(self, store):
        k = key("01", "3")
        ResultStore(store.root, CACHE_VERSION - 1).put((k,), [{"benefit": 9}])
        assert store.get((k,)) == {}  # version mismatch = miss

    def test_headers_read_once_payloads_only_from_hits(self, store,
                                                       monkeypatch):
        a, b = key("a0", "5"), key("b0", "5")
        pack_a = store.put((a,), [{"v": 1}])
        store.put((b,), [{"v": 2}])
        reader = ResultStore(store.root, CACHE_VERSION)
        opened = []
        real_open = open

        def counting_open(path, *args, **kwargs):
            opened.append(os.path.basename(str(path)))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        assert reader.get((a,)) == {a: {"v": 1}}
        assert reader.get((a,)) == {a: {"v": 1}}
        monkeypatch.undo()
        # Two headers on the first call, then pack a's payloads once per
        # call; pack b's payloads are never read.
        assert sorted(opened) == sorted(
            packs(store) + [os.path.basename(pack_a)] * 2)

    def test_stats(self, store):
        for i in range(4):
            store.put((key(f"{i:02d}", "a"),), [{"v": i}])
        stats = store.stats()
        assert stats["entries"] == 4 and stats["claims"] == 0
        assert stats["bytes"] == sum(
            os.path.getsize(os.path.join(store.packs, name))
            for name in packs(store))

    def test_stats_count_packs_and_live_leases_only(self, store):
        k, leased = key("ab", "5"), key("ab", "6")
        path = store.put((k,), [{"v": 1}])
        lease = store.claim((leased,))
        _dead_lease(store, [key("ab", "7")])
        ResultStore(store.root, CACHE_VERSION - 1).put((key("ab", "8"),),
                                                       [{"v": 0}])
        with open(os.path.join(store.root, key("ef", "2") + ".json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"v": 2}, fh)  # the previous layout, unreachable
        assert store.stats() == {"entries": 1, "claims": 1,
                                 "bytes": os.path.getsize(path)}
        store.release(lease)


class TestGC:
    def test_compacts_packs_and_reclaims_legacy_files(self, store):
        """Three packs plus the previous layout's per-key files: gc
        leaves one pack serving the same hits."""
        chunks = [(key("a1", "0"), key("a2", "0")), (key("b1", "0"),),
                  (key("c1", "0"), key("c2", "0"))]
        for i, chunk in enumerate(chunks):
            store.put(chunk, [{"chunk": i, "k": k} for k in chunk])
        everything = tuple(k for chunk in chunks for k in chunk)
        before = ResultStore(store.root, CACHE_VERSION).get(everything)
        shard = os.path.join(store.root, "d1")
        os.makedirs(shard)
        for name in (key("d1", "0") + ".json", key("d1", "1") + ".claim",
                     "leftover.tmp"):
            with open(os.path.join(shard, name), "w") as fh:
                fh.write("{}")
        assert len(packs(store)) == 3
        removed = store.gc()
        assert removed == {"stale": 2, "corrupt": 0, "tmp": 1, "claims": 0,
                           "kept": 5}
        assert len(packs(store)) == 1
        assert not os.path.exists(shard)
        assert ResultStore(store.root, CACHE_VERSION).get(everything) == before
        assert len(before) == 5
        # Compacting a compacted store changes nothing.
        assert store.gc()["kept"] == 5
        assert len(packs(store)) == 1

    def test_reclaims_stale_corrupt_tmp_keeps_live(self, store):
        live = key("aa", "0")
        store.put((live,), [{"benefit": 1}])
        ResultStore(store.root, CACHE_VERSION - 1).put((key("bb", "0"),),
                                                       [{"benefit": 2}])
        with open(os.path.join(store.packs, "c" * 64 + ".pack"),
                  "w", encoding="utf-8") as fh:
            fh.write("{torn")
        with open(os.path.join(store.packs, "leftover.tmp"), "w") as fh:
            fh.write("x")
        removed = store.gc()
        assert removed == {"stale": 1, "corrupt": 1, "tmp": 1, "claims": 0,
                           "kept": 1}
        assert store.get((live,)) == {live: {"benefit": 1}}

    def test_dead_leases_reclaimed_live_kept(self, store):
        lease = store.claim((key("ee", "1"),))
        dead = _dead_lease(store, [key("ee", "0")])
        assert store.gc()["claims"] == 1
        assert not os.path.exists(dead)
        assert os.path.exists(lease.path)
        assert store.stats()["claims"] == 1
        store.release(lease)

    def test_files_outside_the_layout_untouched(self, store):
        live = key("aa", "1")
        store.put((live,), [{"benefit": 1}])
        flat = os.path.join(store.root, key("bb", "1") + ".json")
        with open(flat, "w", encoding="utf-8") as fh:
            json.dump({"benefit": 2}, fh)
        assert store.gc() == {"stale": 0, "corrupt": 0, "tmp": 0,
                              "claims": 0, "kept": 1}
        assert os.path.exists(flat)
        assert store.get((live,)) == {live: {"benefit": 1}}


class TestLeases:
    def test_claim_release_cycle(self, store):
        k = key("0a", "0")
        lease = store.claim((k,))
        assert lease.keys == {k}
        assert os.path.exists(lease.path)
        assert store.claim((k,)).keys == frozenset()  # held, live
        store.release(lease)
        assert not os.path.exists(lease.path)
        store.release(lease)  # idempotent
        again = store.claim((k,))
        assert again.keys == {k}
        store.release(again)

    def test_claim_leases_only_unheld_keys(self, store):
        a, b = key("0a", "1"), key("0a", "2")
        first = store.claim((a,))
        second = store.claim((a, b))
        assert second.keys == {b}
        assert store.stats()["claims"] == 2
        store.release(first)
        store.release(second)

    def test_dead_lease_is_stolen(self, store):
        k = key("0b", "0")
        dead = _dead_lease(store, [k])
        lease = store.claim((k,))
        assert lease.keys == {k}
        assert not os.path.exists(dead)  # reaped under the registry lock
        store.release(lease)

    def test_free_lock_under_a_live_pid_is_dead(self, store):
        """Pid reuse: the lease's holder process is alive (it is this
        one), but the lease's lock is free, so the lease is dead."""
        k = key("0e", "0")
        lease = store.claim((k,))
        _abandon(lease)
        assert store.stats()["claims"] == 0
        stolen = store.claim((k,))
        assert stolen.keys == {k}
        assert not os.path.exists(lease.path)
        store.release(stolen)

    def test_half_made_lease_neither_counted_nor_reaped(self, store):
        """A temp file not yet renamed to ``*.lease`` is a lease still
        being made: claim neither honours nor deletes it."""
        k = key("0f", "0")
        os.makedirs(store.leases)
        half = os.path.join(store.leases, "half.tmp")
        with open(half, "w", encoding="ascii") as fh:
            fh.write(k)
        assert store.stats()["claims"] == 0
        lease = store.claim((k,))
        assert lease.keys == {k}
        assert os.path.exists(half)
        store.release(lease)

    def test_lease_is_complete_and_locked_when_it_appears(self, store,
                                                          monkeypatch):
        """A probe at the instant a lease is renamed into place already
        counts it live: a waiter never mistakes a lease being made for a
        dead one."""
        k = key("0f", "1")
        seen = []
        real_replace = os.replace

        def watching_replace(src, dst):
            real_replace(src, dst)
            if dst.endswith(".lease"):
                seen.append(ResultStore(store.root, CACHE_VERSION).stats())

        monkeypatch.setattr(store_mod.os, "replace", watching_replace)
        lease = store.claim((k,))
        monkeypatch.undo()
        assert [s["claims"] for s in seen] == [1]
        store.release(lease)

    def test_wait_for_gives_up_on_dead_lease(self, store):
        k = key("10", "0")
        dead = _dead_lease(store, [k])
        start = time.monotonic()
        assert store.wait_for((k,), timeout=2.0, poll=0.01) == {}
        assert time.monotonic() - start < 0.5
        assert os.path.exists(dead)  # only the registry holder reaps

    def test_live_lease_is_awaited(self, store):
        k = key("11", "0")
        holder = ResultStore(store.root, CACHE_VERSION)
        lease = holder.claim((k,))
        start = time.monotonic()
        assert store.wait_for((k,), timeout=0.1, poll=0.01) == {}
        assert time.monotonic() - start >= 0.1
        holder.put((k,), [{"v": 1}])
        assert store.wait_for((k,), timeout=0.1) == {k: {"v": 1}}
        holder.release(lease)

    def test_wait_for_returns_after_publish(self, store):
        k = key("0c", "0")
        store.put((k,), [{"benefit": 4}])
        assert store.wait_for((k,), timeout=0.5) == {k: {"benefit": 4}}

    def test_wait_for_gives_up_when_no_lease(self, store):
        assert store.wait_for((key("0d", "0"),), timeout=0.2,
                              poll=0.01) == {}

    def test_executor_runs_point_behind_dead_lease(self, tmp_path):
        """A sweep whose point sits behind a dead lease computes it at
        once instead of waiting out ``wait_for``'s 60 s default."""
        cache_dir = str(tmp_path / "dead")
        points = make_points(3)
        ex = SweepExecutor(cache_dir=cache_dir)
        store = ResultStore(cache_dir, CACHE_VERSION)
        _dead_lease(store, [ex.cache_key(points[1])])
        start = time.monotonic()
        assert ex.run(points) == SweepExecutor().run(points)
        assert time.monotonic() - start < 30.0
        assert (ex.cache_hits, ex.cache_misses) == (0, 3)
        assert store.stats()["claims"] == 0
        assert os.listdir(store.leases) == []

    def test_forked_child_drops_inherited_lease(self, store):
        """A child forked while a lease is open (a worker pool) does not
        keep the lease alive once its holder is gone."""
        k = key("12", "0")
        lease = store.claim((k,))
        ctx = multiprocessing.get_context("fork")
        ready, stop = ctx.Event(), ctx.Event()
        child = ctx.Process(target=_wait_in_child, args=(ready, stop))
        child.start()
        try:
            assert ready.wait(30)
            _abandon(lease)
            stolen = store.claim((k,))
            assert stolen.keys == {k}
            store.release(stolen)
        finally:
            stop.set()
            child.join(30)
        assert not child.is_alive()


def _wait_in_child(ready, stop):
    ready.set()
    stop.wait(30)


def _hold_lease(cache_dir, keys, ready):
    """Child body: lease ``keys`` and hold the lease until killed."""
    ResultStore(cache_dir, CACHE_VERSION).claim(tuple(keys))
    ready.set()
    time.sleep(120)


def _crash_before_release(cache_dir, log_path, n):
    """Child body: sweep, publish every pack, then die by SIGKILL where
    the lease would be released."""
    os.environ[EXEC_LOG_ENV] = log_path

    def crash(self, lease):
        os.kill(os.getpid(), signal.SIGKILL)

    ResultStore.release = crash
    SweepExecutor(cache_dir=cache_dir).run(make_points(n))


def _run_shared_sweep(cache_dir, log_path, n):
    """Child-process body: sweep the shared store with the exec log on
    (module-level so it pickles)."""
    os.environ[EXEC_LOG_ENV] = log_path
    SweepExecutor(cache_dir=cache_dir).run(make_points(n))


def _sweep_subset(cache_dir, log_path, idxs):
    os.environ[EXEC_LOG_ENV] = log_path
    points = make_points(12, factory=partial(slow_pg, beta=2.0))
    SweepExecutor(cache_dir=cache_dir).run([points[i] for i in idxs])


def _ledger(path):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


class TestCrashes:
    def test_sigkilled_holder_points_run_at_once(self, tmp_path):
        """A child holding a lease is killed with SIGKILL: the next
        sweep computes its points at once."""
        cache_dir = str(tmp_path / "store")
        points = make_points(3)
        ex = SweepExecutor(cache_dir=cache_dir)
        keys = [ex.cache_key(p) for p in points]
        ctx = multiprocessing.get_context()
        ready = ctx.Event()
        child = ctx.Process(target=_hold_lease, args=(cache_dir, keys, ready))
        child.start()
        try:
            assert ready.wait(30)
            # While the holder lives, its keys are not leased again.
            store = ResultStore(cache_dir, CACHE_VERSION)
            assert store.claim(tuple(keys)).keys == frozenset()
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.join(30)
        assert not child.is_alive()
        start = time.monotonic()
        assert ex.run(points) == SweepExecutor().run(points)
        assert time.monotonic() - start < 10.0
        assert (ex.cache_hits, ex.cache_misses) == (0, 3)

    def test_crash_between_publish_and_release(self, tmp_path, monkeypatch):
        """A run that published every pack and died before releasing
        its lease leaves a store the next run reads whole."""
        cache_dir = str(tmp_path / "store")
        first_log = str(tmp_path / "first.log")
        n = 4
        ctx = multiprocessing.get_context()
        child = ctx.Process(target=_crash_before_release,
                            args=(cache_dir, first_log, n))
        child.start()
        child.join(60)
        assert not child.is_alive()
        assert child.exitcode == -signal.SIGKILL
        assert len(_ledger(first_log)) == n
        assert len(os.listdir(os.path.join(cache_dir, "leases"))) == 1

        second_log = str(tmp_path / "second.log")
        monkeypatch.setenv(EXEC_LOG_ENV, second_log)
        points = make_points(n)
        ex = SweepExecutor(cache_dir=cache_dir)
        assert ex.run(points) == SweepExecutor().run(points)
        assert (ex.cache_hits, ex.cache_misses) == (n, 0)
        assert _ledger(second_log) == []
        assert ex.store.stats()["claims"] == 0


class TestConcurrentWriters:
    def test_two_executors_never_double_run(self, tmp_path):
        """Two processes sweeping the same points against one store:
        every point executes exactly once across both, packs stay
        uncorrupted, and both see the serial payloads."""
        cache_dir = str(tmp_path / "shared")
        log_path = str(tmp_path / "exec.log")
        n = 8
        ctx = multiprocessing.get_context()
        procs = [ctx.Process(target=_run_shared_sweep,
                             args=(cache_dir, log_path, n))
                 for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
            assert not p.is_alive()
            assert p.exitcode == 0
        executed = _ledger(log_path)
        ex = SweepExecutor(cache_dir=cache_dir)
        points = make_points(n)
        expected_keys = {ex.cache_key(p) for p in points}
        assert sorted(executed) == sorted(expected_keys)  # exactly once
        # The store is uncorrupted: a third executor is all hits and
        # matches a cache-less serial run byte for byte.
        third = ex.run(points)
        assert (ex.cache_hits, ex.cache_misses) == (n, 0)
        assert third == SweepExecutor().run(points)

    def test_oversubscribed_overlapping_sweeps_run_each_point_once(
            self, tmp_path):
        """Six processes on however many cores, each sweeping its own
        overlapping, unequal slice of 12 slow points against one store:
        the ledger holds every key exactly once."""
        cache_dir = str(tmp_path / "shared")
        log_path = str(tmp_path / "exec.log")
        subsets = [range(0, 8), range(2, 10), range(4, 12),
                   range(0, 12, 2), range(1, 12, 3), range(6, 12)]
        ctx = multiprocessing.get_context()
        procs = [ctx.Process(target=_sweep_subset,
                             args=(cache_dir, log_path, list(idxs)))
                 for idxs in subsets]
        for p in procs:
            p.start()
        for p in procs:
            p.join(120)
        for p in procs:
            assert not p.is_alive()
            assert p.exitcode == 0
        points = make_points(12, factory=partial(slow_pg, beta=2.0))
        ex = SweepExecutor(cache_dir=cache_dir)
        assert sorted(_ledger(log_path)) == sorted(
            ex.cache_key(p) for p in points)
        assert ex.run(points) == SweepExecutor().run(points)
        assert (ex.cache_hits, ex.cache_misses) == (12, 0)

    def test_stale_entries_miss_then_gc(self, tmp_path):
        """Packs written under another CACHE_VERSION never serve hits
        and are reclaimed by gc without touching live entries."""
        cache_dir = str(tmp_path / "versioned")
        points = make_points(3)
        ex = SweepExecutor(cache_dir=cache_dir)
        fresh = ex.run(points)
        stale_store = ResultStore(cache_dir, CACHE_VERSION + 1)
        stale_store.put((key("ff", "0"),), [{"benefit": -1}])
        ex2 = SweepExecutor(cache_dir=cache_dir)
        assert ex2.run(points) == fresh
        assert (ex2.cache_hits, ex2.cache_misses) == (3, 0)
        removed = ResultStore(cache_dir, CACHE_VERSION).gc()
        assert removed["stale"] == 1 and removed["kept"] == 3

    def test_publish_between_read_and_claim_is_a_hit(self, tmp_path,
                                                     monkeypatch):
        """Another run publishes and releases between this run's read
        and its claim: the read after the claim finds its packs, so no
        point runs twice."""
        cache_dir = str(tmp_path / "store")
        log_path = str(tmp_path / "exec.log")
        monkeypatch.setenv(EXEC_LOG_ENV, log_path)
        points = make_points(3)
        ex = SweepExecutor(cache_dir=cache_dir)
        real_claim = ex.store.claim

        def racing_claim(keys):
            SweepExecutor(cache_dir=cache_dir).run(points)
            return real_claim(keys)

        ex.store.claim = racing_claim
        assert ex.run(points) == SweepExecutor().run(points)
        assert (ex.cache_hits, ex.cache_misses) == (3, 0)
        assert sorted(_ledger(log_path)) == sorted(
            ex.cache_key(p) for p in points)

    def test_duplicate_points_run_once(self, tmp_path, monkeypatch):
        """The same point twice in one run executes once and counts the
        second as a hit, as a separate waiter on it would."""
        log_path = str(tmp_path / "exec.log")
        monkeypatch.setenv(EXEC_LOG_ENV, log_path)
        points = make_points(2)
        points = points + [points[0]]
        ex = SweepExecutor(cache_dir=str(tmp_path / "store"))
        assert ex.run(points) == SweepExecutor().run(points)
        assert (ex.cache_hits, ex.cache_misses) == (1, 2)
        assert len(_ledger(log_path)) == 2


def test_gm_and_pg_publish_one_pack_per_task(tmp_path):
    """Two policy groups run as two batch tasks: two packs, one lease
    taken and released."""
    points = make_points(3) + make_points(3, factory=GMPolicy)
    ex = SweepExecutor(cache_dir=str(tmp_path / "store"))
    ex.run(points)
    assert len(packs(ex.store)) == 2
    assert os.listdir(ex.store.leases) == []
