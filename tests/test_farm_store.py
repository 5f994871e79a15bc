"""The content-addressed result store (repro.farm.store) and the
concurrent-writer / stale-version hardening it gives the sweep cache."""

import json
import multiprocessing
import os
from functools import partial

import pytest

from repro.core.pg import PGPolicy
from repro.farm import ResultStore
from repro.parallel import CACHE_VERSION, EXEC_LOG_ENV, SweepExecutor, SweepPoint
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.values import uniform_values


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"), CACHE_VERSION)


def make_points(n=6, slots=10):
    config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
    points = []
    for seed in range(n):
        trace = BernoulliTraffic(
            3, 3, load=1.2, value_model=uniform_values(1, 20)
        ).generate(slots, seed=seed)
        points.append(
            SweepPoint(model="cioq", config=config, trace=trace,
                       policy_factory=partial(PGPolicy, beta=2.0),
                       seed=seed, tag={"seed": seed}))
    return points


class TestStoreBasics:
    def test_round_trip_and_sharded_layout(self, store):
        key = "ab" + "0" * 62
        store.put(key, {"benefit": 7})
        assert store.get(key) == {"benefit": 7}
        assert store.path(key).endswith(os.path.join("ab", f"{key}.json"))
        assert os.path.exists(store.path(key))
        # The entry on disk is version-wrapped.
        with open(store.path(key), encoding="utf-8") as fh:
            entry = json.load(fh)
        assert entry == {"cache_version": CACHE_VERSION,
                         "payload": {"benefit": 7}}

    def test_absent_and_corrupt_miss(self, store):
        key = "cd" + "1" * 62
        assert store.get(key) is None
        os.makedirs(os.path.dirname(store.path(key)), exist_ok=True)
        with open(store.path(key), "w", encoding="utf-8") as fh:
            fh.write("{torn")
        assert store.get(key) is None

    def test_flat_file_is_a_miss(self, store):
        key = "ef" + "2" * 62
        os.makedirs(store.root, exist_ok=True)
        flat = os.path.join(store.root, f"{key}.json")
        with open(flat, "w", encoding="utf-8") as fh:
            json.dump({"benefit": 3}, fh)  # bare payload outside any shard
        assert store.get(key) is None

    def test_miss_creates_nothing(self, store):
        assert store.get("ab" + "4" * 62) is None
        assert not os.path.exists(store.root)

    def test_stale_version_misses_cleanly(self, store):
        key = "01" + "3" * 62
        old = ResultStore(store.root, CACHE_VERSION - 1)
        old.put(key, {"benefit": 9})
        assert store.get(key) is None  # version mismatch = miss

    def test_keys_and_stats(self, store):
        for i in range(4):
            store.put(f"{i:02d}" + "a" * 62, {"v": i})
        assert len(list(store.keys())) == 4
        stats = store.stats()
        assert stats["entries"] == 4 and stats["bytes"] > 0

    def test_stats_count_only_sharded_files(self, store):
        key, claimed = "ab" + "5" * 62, "ab" + "6" * 62
        store.put(key, {"v": 1})
        assert store.claim(claimed)
        with open(os.path.join(store.root, "ef" + "2" * 62 + ".json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"v": 2}, fh)  # outside any shard
        assert store.stats() == {"entries": 1, "claims": 1,
                                 "bytes": os.path.getsize(store.path(key))}
        store.release(claimed)


class TestGC:
    def test_reclaims_stale_corrupt_tmp_keeps_live(self, store):
        live = "aa" + "0" * 62
        store.put(live, {"benefit": 1})
        ResultStore(store.root, CACHE_VERSION - 1).put("bb" + "0" * 62,
                                                       {"benefit": 2})
        shard = os.path.join(store.root, "cc")
        os.makedirs(shard, exist_ok=True)
        with open(os.path.join(shard, "cc" + "0" * 62 + ".json"),
                  "w", encoding="utf-8") as fh:
            fh.write("{torn")
        with open(os.path.join(shard, "leftover.tmp"), "w") as fh:
            fh.write("x")
        removed = store.gc()
        assert removed["stale"] == 1
        assert removed["corrupt"] == 1
        assert removed["tmp"] == 1
        assert removed["kept"] == 1
        assert store.get(live) == {"benefit": 1}

    def test_dead_claims_reclaimed(self, store):
        key = "ee" + "0" * 62
        os.makedirs(os.path.dirname(store.claim_path(key)), exist_ok=True)
        with open(store.claim_path(key), "w", encoding="utf-8") as fh:
            json.dump({"pid": 2 ** 22 + 12345}, fh)  # no such process
        assert store.gc()["claims"] == 1
        assert not os.path.exists(store.claim_path(key))

    def test_files_outside_shards_untouched(self, store):
        live = "aa" + "1" * 62
        store.put(live, {"benefit": 1})
        flat = os.path.join(store.root, "bb" + "1" * 62 + ".json")
        with open(flat, "w", encoding="utf-8") as fh:
            json.dump({"benefit": 2}, fh)
        assert store.gc() == {"stale": 0, "corrupt": 0, "tmp": 0,
                              "claims": 0, "kept": 1}
        assert os.path.exists(flat)
        assert store.get(live) == {"benefit": 1}


class TestClaims:
    def test_claim_release_cycle(self, store):
        key = "0a" + "0" * 62
        assert store.claim(key)
        assert not store.claim(key)  # held by this live process
        store.release(key)
        assert store.claim(key)

    def test_dead_claim_is_stolen(self, store):
        key = "0b" + "0" * 62
        os.makedirs(os.path.dirname(store.claim_path(key)), exist_ok=True)
        with open(store.claim_path(key), "w", encoding="utf-8") as fh:
            json.dump({"pid": 2 ** 22 + 54321}, fh)
        assert store.claim(key)  # stolen from the dead pid

    def test_wait_for_returns_after_publish(self, store):
        key = "0c" + "0" * 62
        store.put(key, {"benefit": 4})
        assert store.wait_for(key, timeout=0.5) == {"benefit": 4}

    def test_wait_for_gives_up_when_claim_vanishes(self, store):
        key = "0d" + "0" * 62
        assert store.wait_for(key, timeout=0.2, poll=0.01) is None


def _run_shared_sweep(cache_dir, log_path, n):
    """Child-process body: sweep the shared store with the exec log on
    (module-level so it pickles)."""
    os.environ[EXEC_LOG_ENV] = log_path
    SweepExecutor(cache_dir=cache_dir).run(make_points(n))


class TestConcurrentWriters:
    def test_two_executors_never_double_run(self, tmp_path):
        """Two processes sweeping the same points against one store:
        every point executes exactly once across both, entries stay
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
            assert p.exitcode == 0
        with open(log_path, encoding="utf-8") as fh:
            executed = fh.read().splitlines()
        ex = SweepExecutor(cache_dir=cache_dir)
        points = make_points(n)
        expected_keys = {ex.cache_key(p) for p in points}
        assert sorted(executed) == sorted(expected_keys)  # exactly once
        # The store is uncorrupted: a third executor is all hits and
        # matches a cache-less serial run byte for byte.
        third = ex.run(points)
        assert (ex.cache_hits, ex.cache_misses) == (n, 0)
        assert third == SweepExecutor().run(points)

    def test_stale_entries_miss_then_gc(self, tmp_path):
        """Entries written under another CACHE_VERSION never serve hits
        and are reclaimed by gc without touching live entries."""
        cache_dir = str(tmp_path / "versioned")
        points = make_points(3)
        ex = SweepExecutor(cache_dir=cache_dir)
        fresh = ex.run(points)
        stale_store = ResultStore(cache_dir, CACHE_VERSION + 1)
        stale_store.put("ff" + "0" * 62, {"benefit": -1})
        ex2 = SweepExecutor(cache_dir=cache_dir)
        assert ex2.run(points) == fresh
        assert (ex2.cache_hits, ex2.cache_misses) == (3, 0)
        removed = ResultStore(cache_dir, CACHE_VERSION).gc()
        assert removed["stale"] == 1 and removed["kept"] == 3
