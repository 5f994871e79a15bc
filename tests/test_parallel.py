"""Tests for the parallel sweep substrate (repro.parallel)."""

from functools import partial

import pytest

from repro.analysis.sweep import (
    beta_sweep_pg,
    buffer_sweep_crossbar,
    speedup_sweep,
    threshold_sweep_cpg,
)
from repro.core.cgu import CGUPolicy
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.parallel import (
    SweepExecutor,
    SweepPoint,
    describe_factory,
    run_sweep_point,
)
from repro.scheduling.baselines import MaxMatchPolicy
from repro.simulation.engine import run_cioq
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.values import two_value, uniform_values


@pytest.fixture
def config():
    return SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)


@pytest.fixture
def trace():
    return BernoulliTraffic(3, 3, load=1.3).generate(12, seed=0)


def make_points(config, n=6):
    points = []
    for seed in range(n):
        trace = BernoulliTraffic(
            3, 3, load=1.2, value_model=uniform_values(1, 20)
        ).generate(10, seed=seed)
        points.append(
            SweepPoint(model="cioq", config=config, trace=trace,
                       policy_factory=partial(PGPolicy, beta=2.0), seed=seed,
                       tag={"seed": seed})
        )
    return points


class TestSweepPoint:
    def test_rejects_unknown_model(self, config, trace):
        with pytest.raises(ValueError, match="model"):
            SweepPoint(model="banyan", config=config, trace=trace)

    @pytest.mark.parametrize("mode, window", [
        ("magic", None), ("windowed", None), ("windowed", 0),
    ])
    def test_rejects_bad_opt_mode(self, config, trace, mode, window):
        with pytest.raises(ValueError, match="opt mode"):
            SweepPoint(model="cioq", config=config, trace=trace,
                       opt_mode=mode, opt_window=window)

    def test_payload_matches_direct_run(self, config, trace):
        point = SweepPoint(model="cioq", config=config, trace=trace,
                           policy_factory=GMPolicy, seed=0,
                           tag={"cell": "a"})
        payload = run_sweep_point(point)
        direct = run_cioq(GMPolicy(), config, trace)
        assert payload["benefit"] == direct.benefit
        assert payload["n_sent"] == direct.n_sent
        assert payload["n_rejected"] == direct.n_rejected
        assert payload["tag"] == {"cell": "a"}

    def test_opt_point(self, config, trace):
        payload = run_sweep_point(
            SweepPoint(model="cioq", config=config, trace=trace)
        )
        assert payload["policy"] == "OPT"
        assert payload["benefit"] > 0


class TestDescribeFactory:
    def test_class(self):
        assert describe_factory(GMPolicy).endswith("GMPolicy")

    def test_partial_includes_params(self):
        desc = describe_factory(partial(PGPolicy, beta=2.5))
        assert "PGPolicy" in desc and "beta=2.5" in desc

    def test_opt(self):
        assert describe_factory(None) == "OPT"


class TestExecutor:
    def test_serial_order_preserved(self, config):
        points = make_points(config)
        payloads = SweepExecutor().run(points)
        assert [p["tag"]["seed"] for p in payloads] == list(range(len(points)))

    def test_parallel_bit_identical_to_serial(self, config):
        points = make_points(config)
        serial = SweepExecutor(workers=0).run(points)
        parallel = SweepExecutor(workers=3).run(points)
        assert serial == parallel

    def test_chunked_dispatch_bit_identical(self, config):
        points = make_points(config, n=7)
        serial = SweepExecutor().run(points)
        chunked = SweepExecutor(workers=2, chunk_size=2).run(points)
        assert serial == chunked

    def test_cache_round_trip(self, config, tmp_path):
        points = make_points(config, n=4)
        ex1 = SweepExecutor(cache_dir=str(tmp_path))
        first = ex1.run(points)
        assert (ex1.cache_hits, ex1.cache_misses) == (0, 4)
        ex2 = SweepExecutor(cache_dir=str(tmp_path))
        second = ex2.run(points)
        assert (ex2.cache_hits, ex2.cache_misses) == (4, 0)
        assert first == second

    def test_cache_key_sensitivity(self, config, trace):
        ex = SweepExecutor(cache_dir="unused")
        base = SweepPoint(model="cioq", config=config, trace=trace,
                          policy_factory=GMPolicy, seed=0)
        other_policy = SweepPoint(model="cioq", config=config, trace=trace,
                                  policy_factory=MaxMatchPolicy, seed=0)
        other_seed = SweepPoint(model="cioq", config=config, trace=trace,
                                policy_factory=GMPolicy, seed=1)
        fat_config = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2)
        other_config = SweepPoint(model="cioq", config=fat_config,
                                  trace=trace, policy_factory=GMPolicy, seed=0)
        keys = {ex.cache_key(p) for p in
                (base, other_policy, other_seed, other_config)}
        assert len(keys) == 4
        assert ex.cache_key(base) == ex.cache_key(
            SweepPoint(model="cioq", config=config, trace=trace,
                       policy_factory=GMPolicy, seed=0)
        )

    def test_corrupt_cache_entry_is_recomputed(self, config, tmp_path):
        points = make_points(config, n=1)
        ex = SweepExecutor(cache_dir=str(tmp_path))
        first = ex.run(points)
        path = ex.store.path(ex.cache_key(points[0]))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        again = SweepExecutor(cache_dir=str(tmp_path)).run(points)
        assert again == first


class TestSweepFunctionsThroughExecutor:
    """The rewired analysis sweeps produce identical rows for serial,
    parallel, and cached executors."""

    def test_beta_sweep(self, config, tmp_path):
        trace = BernoulliTraffic(
            3, 3, load=1.4, value_model=two_value(10, 0.3)
        ).generate(12, seed=2)
        betas = [1.2, 2.0, 3.0]
        serial = beta_sweep_pg(trace, config, betas)
        parallel = beta_sweep_pg(
            trace, config, betas, executor=SweepExecutor(workers=2)
        )
        cached_ex = SweepExecutor(cache_dir=str(tmp_path))
        cached_cold = beta_sweep_pg(trace, config, betas, executor=cached_ex)
        cached_warm = beta_sweep_pg(trace, config, betas, executor=cached_ex)
        assert serial == parallel == cached_cold == cached_warm
        assert cached_ex.cache_hits == len(betas)

    def test_threshold_sweep(self, config):
        trace = BernoulliTraffic(
            3, 3, load=1.4, value_model=two_value(10, 0.3)
        ).generate(10, seed=4)
        serial = threshold_sweep_cpg(trace, config, [1.5, 2.0], [2.0, 3.0])
        parallel = threshold_sweep_cpg(
            trace, config, [1.5, 2.0], [2.0, 3.0],
            executor=SweepExecutor(workers=2),
        )
        assert serial == parallel

    def test_speedup_sweep(self):
        base = SwitchConfig.square(3, b_in=2, b_out=2)
        traffic = HotspotTraffic(3, 3, load=1.3, hot_fraction=0.5)
        kwargs = dict(
            policy_factories={"GM": GMPolicy, "MaxMatch": MaxMatchPolicy},
            traffic=traffic,
            n_slots=10,
            speedups=[1, 2],
            base_config=base,
            seeds=(0, 1),
        )
        serial = speedup_sweep(**kwargs)
        parallel = speedup_sweep(**kwargs, executor=SweepExecutor(workers=3))
        assert serial == parallel
        assert {r["speedup"] for r in serial} == {1, 2}

    def test_buffer_sweep(self):
        base = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
        traffic = BernoulliTraffic(3, 3, load=1.5)
        kwargs = dict(
            policy_factory=CGUPolicy,
            traffic=traffic,
            n_slots=10,
            b_cross_values=[1, 2],
            base_config=base,
            seeds=(0,),
        )
        serial = buffer_sweep_crossbar(**kwargs)
        parallel = buffer_sweep_crossbar(
            **kwargs, executor=SweepExecutor(workers=2)
        )
        assert serial == parallel


class TestCLISweep:
    def test_serial_and_parallel_output_identical(self, capsys):
        from repro.cli import main

        argv = ["sweep", "--policies", "gm,maxmatch", "--loads", "0.9,1.3",
                "--seeds", "2", "--slots", "8", "--n", "3", "--opt"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--workers", "3"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out
        assert "per-load mean benefit" in serial_out

    def test_unknown_policy_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "--policies", "nonsense", "--slots", "5"])
