"""Tests for the scenario registry, spec serialization, runner
determinism, artifacts and the `repro scenarios` CLI verbs."""

import dataclasses
import json
import tomllib

import pytest

from repro.cli import main as cli_main
from repro.parallel import SweepExecutor
from repro.scenarios import (
    ARTIFACT_VERSION,
    ScenarioSpec,
    all_scenarios,
    get_scenario,
    policy_label,
    register_scenario,
    run_scenario,
    scenario_names,
    unregister_scenario,
    write_artifacts,
)


def small_spec(**overrides):
    fields = dict(
        name="test-tiny",
        description="test scenario",
        model="cioq",
        switch={"n_in": 3, "n_out": 3, "b_in": 2, "b_out": 2},
        traffic="bernoulli",
        traffic_params={"load": 1.2},
        policies=({"name": "gm"}, {"name": "pg", "beta": 2.0}),
        slots=8,
        seeds=(0, 1),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestRegistry:
    def test_builtin_catalog_size(self):
        assert len(scenario_names()) >= 12

    def test_get_known_scenario(self):
        spec = get_scenario("smoke-bernoulli")
        assert spec.name == "smoke-bernoulli"
        assert spec.model == "cioq"

    def test_get_unknown_raises_with_listing(self):
        with pytest.raises(KeyError, match="registered"):
            get_scenario("no-such-scenario")

    def test_register_decorator_and_duplicate_rejection(self):
        name = "test-register-decorator"
        try:
            @register_scenario
            def _builder():
                return small_spec(name=name)

            assert get_scenario(name).name == name
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(small_spec(name=name))
        finally:
            unregister_scenario(name)
        assert name not in scenario_names()

    def test_register_rejects_non_spec(self):
        with pytest.raises(TypeError):
            register_scenario(lambda: "not a spec")

    def test_registered_specs_are_immutable(self):
        spec = get_scenario("qos-two-class")
        with pytest.raises(TypeError):
            spec.policies[0]["beta"] = 99.0
        with pytest.raises(TypeError):
            spec.traffic_params["load"] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.slots = 1

    def test_all_scenarios_sorted_and_documented_fields(self):
        specs = all_scenarios()
        assert [s.name for s in specs] == sorted(s.name for s in specs)
        for s in specs:
            assert s.description, f"{s.name} lacks a description"
            assert s.expected, f"{s.name} lacks an expected outcome"


class TestSpecValidation:
    def test_unknown_model(self):
        with pytest.raises(ValueError, match="switch model"):
            small_spec(model="torus")

    def test_unknown_traffic_kind(self):
        with pytest.raises(ValueError, match="traffic kind"):
            small_spec(traffic="carrier-pigeon")

    def test_unknown_value_kind(self):
        with pytest.raises(ValueError, match="value kind"):
            small_spec(values="bitcoin")

    def test_unknown_policy_for_model(self):
        with pytest.raises(ValueError, match="unknown policy"):
            small_spec(policies=({"name": "cgu"},))  # crossbar-only

    def test_duplicate_policy_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            small_spec(policies=({"name": "gm"}, {"name": "gm"}))

    def test_reserved_policy_labels_rejected(self):
        for label in ("seed", "arrived", "OPT"):
            with pytest.raises(ValueError, match="reserved"):
                small_spec(policies=({"name": "gm", "label": label},))

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            small_spec(metrics=("benefit", "vibes"))

    def test_unknown_switch_field(self):
        with pytest.raises(ValueError, match="switch fields"):
            small_spec(switch={"n_ports": 4})

    def test_path_like_names_rejected(self):
        # The name doubles as the results/ subdirectory; separators and
        # dots must never reach os.path.join.
        for bad in ("../escape", "a/b", "a\\b", "UPPER", "dot.name", "",
                    "-leading"):
            with pytest.raises(ValueError, match="kebab-case"):
                small_spec(name=bad)

    def test_needs_seeds_and_slots(self):
        with pytest.raises(ValueError):
            small_spec(seeds=())
        with pytest.raises(ValueError):
            small_spec(slots=0)

    def test_negative_seeds_rejected(self):
        """numpy's generators refuse negative seeds, so the spec does,
        before any trace is generated."""
        with pytest.raises(ValueError, match="seeds must be >= 0"):
            small_spec(seeds=(0, -3))
        with pytest.raises(ValueError, match="base_seed must be >= 0"):
            small_spec(replicates={"n": 2, "base_seed": -5})
        with pytest.raises(ValueError, match="seeds must be >= 0"):
            small_spec().with_overrides(seeds=[-1])

    def test_policy_labels(self):
        assert policy_label({"name": "gm"}) == "gm"
        assert policy_label({"name": "pg", "beta": 1.5}) == "pg(beta=1.5)"
        assert policy_label({"name": "pg", "label": "mine"}) == "mine"


class TestSerialization:
    @pytest.mark.parametrize("name", [
        "smoke-bernoulli", "bursty-incast", "qos-two-class",
        "adversarial-overload", "crossbar-weighted-pareto",
    ])
    def test_toml_round_trip(self, name):
        spec = get_scenario(name)
        assert ScenarioSpec.from_toml(spec.to_toml()) == spec

    def test_json_round_trip_all_builtin(self):
        for spec in all_scenarios():
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_toml_parses_with_stdlib(self):
        data = tomllib.loads(small_spec().to_toml())
        assert data["name"] == "test-tiny"
        assert data["switch"]["n_in"] == 3
        assert data["policies"][1]["beta"] == 2.0

    def test_from_file_toml_and_json(self, tmp_path):
        spec = small_spec()
        t = tmp_path / "s.toml"
        j = tmp_path / "s.json"
        t.write_text(spec.to_toml())
        j.write_text(spec.to_json())
        assert ScenarioSpec.from_file(str(t)) == spec
        assert ScenarioSpec.from_file(str(j)) == spec

    def test_nested_policy_params_round_trip_as_inline_table(self):
        spec = small_spec(
            switch={"n_in": 6, "n_out": 6, "b_in": 3, "b_out": 3},
            traffic="adversarial",
            traffic_params={"adversary": "single-output-overload",
                            "policy": "pg", "policy_params": {"beta": 2.0}},
            policies=({"name": "gm"},),
        )
        text = spec.to_toml()
        assert "policy_params = { beta = 2.0 }" in text
        assert ScenarioSpec.from_toml(text) == spec

    def test_non_bare_param_keys_round_trip_quoted(self):
        spec = small_spec(traffic_params={"load": 1.0},
                          value_params={"weird key.name": 2.0},
                          values="unit")
        # unknown value_params would fail at build time, but export
        # must still emit parseable TOML with the key quoted.
        text = spec.to_toml()
        assert '"weird key.name" = 2.0' in text
        assert ScenarioSpec.from_toml(text) == spec

    def test_control_characters_in_strings_round_trip(self):
        spec = small_spec(description="line1\nline2\ttabbed \"quoted\"",
                          expected="bell\x07")
        assert ScenarioSpec.from_toml(spec.to_toml()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            ScenarioSpec.from_dict({"name": "x", "frobnicate": 1})

    def test_with_overrides(self):
        spec = small_spec()
        out = spec.with_overrides(slots=99, seeds=[5, 6])
        assert (out.slots, out.seeds) == (99, (5, 6))
        assert spec.slots == 8  # original untouched
        assert spec.with_overrides() is spec


class TestBuilders:
    def test_build_config_defaults_plus_overrides(self):
        cfg = small_spec().build_config()
        assert (cfg.n_in, cfg.n_out, cfg.b_in, cfg.b_out) == (3, 3, 2, 2)
        assert cfg.speedup == 1 and cfg.b_cross == 1  # defaults

    def test_every_builtin_traffic_builds(self):
        for spec in all_scenarios():
            traffic = spec.build_traffic()
            trace = traffic.generate(min(spec.slots, 6), seed=spec.seeds[0])
            cfg = spec.build_config()
            assert (trace.n_in, trace.n_out) == (cfg.n_in, cfg.n_out)

    def test_policy_factories_are_fresh_and_parametrized(self):
        factories = dict(small_spec().policy_factories())
        pg = factories["pg(beta=2.0)"]()
        assert pg.beta == 2.0
        assert factories["gm"]() is not factories["gm"]()

    def test_adversarial_gadget_requires_gadget_or_adversary(self):
        spec = small_spec(traffic="adversarial", traffic_params={})
        with pytest.raises(ValueError, match="exactly one"):
            spec.build_traffic()

    def test_adversarial_rejects_non_unit_values(self):
        spec = small_spec(
            traffic="adversarial",
            traffic_params={"gadget": "burst-reject"},
            values="pareto",
        )
        with pytest.raises(ValueError, match="own packet values"):
            spec.build_traffic()

    def test_replay_kind_checks_dimensions(self, tmp_path):
        from repro.traffic import BernoulliTraffic

        path = tmp_path / "t.json"
        BernoulliTraffic(2, 2, load=1.0).generate(4, seed=0).save(str(path))
        spec = small_spec(traffic="replay",
                          traffic_params={"path": str(path)})
        with pytest.raises(ValueError, match="2x2"):
            spec.build_traffic()  # scenario switch is 3x3


class TestRunner:
    def test_rows_and_aggregates_shape(self):
        run = run_scenario(small_spec())
        assert len(run.rows) == 2  # one per seed
        for row in run.rows:
            assert set(row) == {"seed", "arrived", "gm", "pg(beta=2.0)", "OPT"}
        labels = [a["policy"] for a in run.aggregates]
        assert labels == ["gm", "pg(beta=2.0)", "OPT"]
        assert all(a["mean_ratio"] >= 1.0 - 1e-9 for a in run.aggregates)
        # metrics: one row per (seed, policy incl. OPT)
        assert len(run.metrics) == 2 * 3

    def test_serial_vs_parallel_bit_identical(self, tmp_path):
        spec = small_spec()
        serial = run_scenario(spec)
        parallel = run_scenario(spec, executor=SweepExecutor(workers=3))
        assert serial.artifact() == parallel.artifact()
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_artifacts(serial, str(a))
        write_artifacts(parallel, str(b))
        for fname in ("result.json", "result.csv", "scenario.toml"):
            assert (a / spec.name / fname).read_bytes() == \
                   (b / spec.name / fname).read_bytes()

    def test_artifact_schema(self, tmp_path):
        run = run_scenario(small_spec(include_opt=False))
        json_path, csv_path, toml_path = write_artifacts(run, str(tmp_path))
        data = json.loads(open(json_path).read())
        assert data["artifact_version"] == ARTIFACT_VERSION
        assert ScenarioSpec.from_dict(data["scenario"]) == run.spec
        assert len(data["rows"]) == 2
        assert "OPT" not in data["rows"][0]
        header = open(csv_path).readline().strip().split(",")
        assert header[:2] == ["seed", "policy"]
        assert "benefit" in header
        assert ScenarioSpec.from_file(toml_path) == run.spec

    def test_zero_benefit_ratio_is_null_not_infinity(self, tmp_path):
        # 1 slot of near-zero load: a policy (and OPT) can deliver
        # nothing; the artifact must stay strict JSON (no Infinity).
        spec = small_spec(traffic_params={"load": 0.0}, slots=1,
                          seeds=(0,))
        run = run_scenario(spec)
        for agg in run.aggregates:
            assert agg["mean_ratio"] in (1.0, None)
        json_path, _csv, _toml = write_artifacts(run, str(tmp_path))
        json.loads(open(json_path).read())  # strict parse succeeds

    def test_no_opt_means_no_ratio(self):
        run = run_scenario(small_spec(include_opt=False))
        assert all("mean_ratio" not in a for a in run.aggregates)

    def test_crossbar_scenario_runs(self):
        run = run_scenario(get_scenario("crossbar-unit-burst"))
        assert {a["policy"] for a in run.aggregates} == {"cgu", "fifo", "OPT"}

    def test_cache_dir_round_trip(self, tmp_path):
        spec = small_spec()
        cache_dir = str(tmp_path / "cache")
        first = run_scenario(spec, executor=SweepExecutor(cache_dir=cache_dir))
        second = run_scenario(spec,
                              executor=SweepExecutor(cache_dir=cache_dir))
        assert first.artifact() == second.artifact()

    def test_opt_bounds_mode_rows_bracket_exact(self, tmp_path):
        """With an inexact OPT mode the rows grow certified OPT_lo/OPT_hi
        columns that sandwich the exact optimum, the aggregates switch to
        the bracketed mean-ratio form, and the artifact records the
        solver mode in its v3 ``opt`` block."""
        bounded = run_scenario(small_spec(), opt_mode="bounds")
        exact = run_scenario(small_spec())
        for brow, erow in zip(bounded.rows, exact.rows):
            assert set(brow) == {"seed", "arrived", "gm", "pg(beta=2.0)",
                                 "OPT", "OPT_lo", "OPT_hi"}
            assert brow["OPT_lo"] <= erow["OPT"] <= brow["OPT_hi"]
            # bounds mode reports the conservative upper end as "OPT"
            assert brow["OPT"] == brow["OPT_hi"]
        assert "OPT_lo" not in exact.rows[0]
        # any non-degenerate seed bracket => never report an exact-looking
        # mean ratio, only the certified bracket on it
        assert any(r["OPT_lo"] < r["OPT_hi"] for r in bounded.rows)
        for agg in bounded.aggregates:
            assert agg["mean_ratio"] is None
            assert "mean_ratio_lo" in agg and "mean_ratio_hi" in agg
        json_path, _csv, _toml = write_artifacts(bounded, str(tmp_path))
        data = json.loads(open(json_path).read())
        assert data["artifact_version"] == ARTIFACT_VERSION
        assert data["opt"] == {"mode": "bounds", "window": None}
        assert all("OPT_lo" in row and "OPT_hi" in row
                   for row in data["rows"])


class TestScenarioCLI:
    def test_list(self, capsys):
        assert cli_main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_show(self, capsys):
        assert cli_main(["scenarios", "show", "smoke-bernoulli"]) == 0
        out = capsys.readouterr().out
        assert 'name = "smoke-bernoulli"' in out

    def test_show_unknown_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["scenarios", "show", "nope"])

    def test_run_writes_artifacts(self, tmp_path, capsys):
        rc = cli_main(["scenarios", "run", "smoke-bernoulli",
                       "--workers", "2", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-policy aggregates" in out
        assert (tmp_path / "smoke-bernoulli" / "result.json").exists()
        assert (tmp_path / "smoke-bernoulli" / "result.csv").exists()

    def test_run_no_artifacts_with_overrides(self, tmp_path, capsys):
        rc = cli_main(["scenarios", "run", "smoke-bernoulli",
                       "--no-artifacts", "--slots", "5", "--seeds", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "5 slots, 1 seeds" in out
        assert "artifacts:" not in out

    def test_run_bad_seeds_is_clean_error(self, capsys):
        with pytest.raises(SystemExit, match="bad override"):
            cli_main(["scenarios", "run", "smoke-bernoulli",
                      "--seeds", ""])
        with pytest.raises(SystemExit, match="bad override"):
            cli_main(["scenarios", "run", "smoke-bernoulli",
                      "--seeds", "1,x"])

    def test_run_negative_seeds_is_clean_error(self, capsys):
        with pytest.raises(SystemExit,
                           match="bad override: seeds must be >= 0"):
            cli_main(["scenarios", "run", "smoke-bernoulli",
                      "--seeds", "-3", "--no-artifacts"])

    def test_run_file_negative_base_seed_is_clean_error(self, tmp_path):
        data = get_scenario("replicated-smoke").to_dict()
        data["replicates"] = {**data["replicates"], "base_seed": -5}
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit,
                           match="bad spec: replicates.base_seed must be"):
            cli_main(["scenarios", "run", "--file", str(path),
                      "--no-artifacts"])

    def test_export_and_run_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "exported.toml"
        assert cli_main(["scenarios", "export", "smoke-bernoulli",
                         "-o", str(path)]) == 0
        capsys.readouterr()
        assert ScenarioSpec.from_file(str(path)) == \
               get_scenario("smoke-bernoulli")
        rc = cli_main(["scenarios", "run", "--file", str(path),
                       "--no-artifacts"])
        assert rc == 0
        assert "per-policy aggregates" in capsys.readouterr().out

    def test_export_json_stdout(self, capsys):
        assert cli_main(["scenarios", "export", "smoke-bernoulli",
                         "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "smoke-bernoulli"
