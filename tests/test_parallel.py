"""Tests for the parallel sweep substrate (repro.parallel)."""

import json
import os
from functools import partial

import pytest

from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.offline import OPT_MODES
from repro.parallel import (
    SweepExecutor,
    SweepPoint,
    describe_factory,
    run_sweep_point,
)
from repro.scenarios import ScenarioSpec, run_scenario, run_scenarios
from repro.scheduling.baselines import MaxMatchPolicy
from repro.simulation.engine import run_cioq
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.values import uniform_values


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

    @pytest.mark.parametrize("mode", ["magic", "windowed"])
    def test_rejects_bad_opt_mode(self, config, trace, mode):
        with pytest.raises(ValueError, match="opt mode"):
            SweepPoint(model="cioq", config=config, trace=trace,
                       opt_mode=mode)

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
        # 20 single-point tasks on 2 workers: chunks of
        # ceil(20 / (4 * 2)) = 3 tasks each.
        points = make_points(config, n=20)
        serial = SweepExecutor().run(points)
        chunked = SweepExecutor(workers=2).run(points)
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

    def test_cache_key_separates_opt_modes(self, config, trace):
        # The opt term is the requested mode alone: an exact point never
        # reads a bounds or auto payload, whatever auto resolved to.
        ex = SweepExecutor(cache_dir="unused")
        keys = {ex.cache_key(SweepPoint(model="cioq", config=config,
                                        trace=trace, policy_factory=GMPolicy,
                                        seed=0, opt_mode=mode))
                for mode in OPT_MODES}
        assert len(keys) == len(OPT_MODES)

    def test_corrupt_cache_entry_is_recomputed(self, config, tmp_path):
        points = make_points(config, n=1)
        ex = SweepExecutor(cache_dir=str(tmp_path))
        first = ex.run(points)
        [pack] = os.listdir(ex.store.packs)
        with open(os.path.join(ex.store.packs, pack), "w",
                  encoding="utf-8") as fh:
            fh.write("{not json")
        again_ex = SweepExecutor(cache_dir=str(tmp_path))
        again = again_ex.run(points)
        assert again == first
        assert (again_ex.cache_hits, again_ex.cache_misses) == (0, 1)


class TestRunScenarios:
    """A grid of specs runs through one executor call and splits back
    into the runs each spec gives alone, for serial, parallel and
    cached executors."""

    def test_grid_of_specs_is_one_executor_call(self, tmp_path,
                                               monkeypatch):
        cioq = ScenarioSpec(
            name="grid-cioq",
            switch={"n_in": 3, "n_out": 3, "b_in": 2, "b_out": 2},
            traffic="hotspot",
            traffic_params={"load": 1.4, "hot_fraction": 0.5},
            values="two-value",
            value_params={"alpha": 10, "p_high": 0.3},
            policies=({"name": "gm"}, {"name": "pg", "beta": 1.5},
                      {"name": "pg", "beta": 3.0}),
            slots=10,
            seeds=(0, 1),
        )
        crossbar = ScenarioSpec(
            name="grid-crossbar",
            model="crossbar",
            switch={"n_in": 3, "n_out": 3, "b_in": 2, "b_out": 2},
            traffic_params={"load": 1.5},
            values="two-value",
            value_params={"alpha": 10, "p_high": 0.3},
            policies=({"name": "cgu"},
                      {"name": "cpg", "beta": 1.5, "alpha": 2.0}),
            slots=8,
            seeds=(2,),
        )
        specs = [
            cioq,
            cioq.with_overrides(switch={**cioq.switch, "speedup": 2}),
            crossbar,
            crossbar.with_overrides(switch={**crossbar.switch, "b_cross": 2}),
        ]
        n_points = 2 * 2 * (3 + 1) + 2 * 1 * (2 + 1)

        calls = []
        run = SweepExecutor.run

        def counted_run(self, points):
            calls.append(len(points))
            return run(self, points)

        monkeypatch.setattr(SweepExecutor, "run", counted_run)

        def artifacts(runs):
            return [json.dumps(r.artifact(), indent=2, sort_keys=True,
                               allow_nan=False) for r in runs]

        serial = artifacts(run_scenarios(specs))
        parallel = artifacts(run_scenarios(specs, SweepExecutor(workers=2)))
        cold_ex = SweepExecutor(cache_dir=str(tmp_path))
        cold = artifacts(run_scenarios(specs, cold_ex))
        warm_ex = SweepExecutor(cache_dir=str(tmp_path))
        warm = artifacts(run_scenarios(specs, warm_ex))
        assert serial == parallel == cold == warm
        assert calls == [n_points] * 4
        assert (cold_ex.cache_hits, cold_ex.cache_misses) == (0, n_points)
        assert (warm_ex.cache_hits, warm_ex.cache_misses) == (n_points, 0)
        # Each spec's run is the run it gives alone.
        assert serial == artifacts(run_scenario(spec) for spec in specs)


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
