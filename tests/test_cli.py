"""Tests for the command-line interface."""

import json
import os
import pathlib

import pytest

from repro.cli import build_parser, main

#: ``repro run --occupancy`` stdout, argv -> text, pinned byte for byte
#: for one CIOQ and one crossbar command, each with and without
#: ``--delays``.  The sparklines draw an every-slot recorder's series.
OCCUPANCY_STDOUT = json.loads(
    (pathlib.Path(__file__).parent / "cli_occupancy_stdout.json").read_text())

#: A trace in the JSON document format that ``Trace.save`` wrote before
#: the chunked stream became the one trace file format.
LEGACY_JSON_TRACE = ('{"name": "legacy", "n_in": 3, "n_out": 3, '
                     '"n_slots": 3, "packets": [[0, 1.0, 0, 0, 1], '
                     '[1, 1.0, 2, 1, 0]]}')


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "gm"
        assert args.model == "cioq"
        assert args.n == 4

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--policy", "nonsense", "--slots", "5"])

    def test_crossbar_policy_table(self):
        with pytest.raises(SystemExit):
            main(["run", "--policy", "gm", "--model", "crossbar",
                  "--slots", "5"])

    @pytest.mark.parametrize("argv, flag", [
        (["ratio", "--opt-mode", "windowed"], "--opt-mode"),
        (["ratio", "--opt-window", "5"], "--opt-window"),
        (["scenarios", "run", "smoke-bernoulli", "--opt-mode", "windowed",
          "--no-artifacts"], "--opt-mode"),
        (["scenarios", "run", "smoke-bernoulli", "--opt-window", "5",
          "--no-artifacts"], "--opt-window"),
        (["submit", "smoke-bernoulli", "--opt-mode", "windowed"],
         "--opt-mode"),
        (["submit", "smoke-bernoulli", "--opt-window", "5"],
         "--opt-window"),
    ])
    def test_windowed_opt_rejected(self, argv, flag, capsys, tmp_path,
                                   monkeypatch):
        """Windowed OPT is gone: its mode and window flag are usage
        errors (exit 2) raised before any trace is generated or any job
        is queued."""
        from repro.traffic.base import TrafficModel

        def no_traffic(*args, **kwargs):
            raise AssertionError("trace generated before the opt check")

        monkeypatch.setattr(TrafficModel, "generate", no_traffic)
        queue = tmp_path / "queue"
        if argv[0] == "submit":
            argv = argv + ["--queue", str(queue)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error:" in err.splitlines()[-1] and flag in err
        assert not queue.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--seed", "-1"],
        ["ratio", "--seed", "-2"],
        ["trace", "record", "out.jsonl", "--seed", "-1"],
    ])
    def test_negative_seed_is_a_usage_error(self, argv, capsys, tmp_path,
                                            monkeypatch):
        """numpy refuses negative seeds; the parser says so (exit 2)
        instead of a traceback from the traffic generator."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be an integer >= 0" in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("verb", ["run", "ratio", "sweep"])
    @pytest.mark.parametrize("beta", ["0", "0.5"])
    def test_beta_below_one_is_a_usage_error(self, verb, beta, capsys,
                                             monkeypatch):
        """PG needs beta >= 1: ``--beta 0`` used to run PG at beta* and
        ``--beta 0.5`` died in ``PGPolicy``; both are now exit 2."""
        from repro.traffic.base import TrafficModel

        def no_traffic(*args, **kwargs):
            raise AssertionError("trace generated before the beta check")

        monkeypatch.setattr(TrafficModel, "generate", no_traffic)
        argv = [verb, "--beta", beta]
        argv += ["--policies", "pg"] if verb == "sweep" else ["--policy", "pg"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --beta: must be a number >= 1" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["run", "--n", "0"],
        ["run", "--speedup", "0"],
        ["run", "--slots", "0"],
        ["ratio", "--b-in", "0"],
        ["sweep", "--b-out", "-1"],
        ["run", "--model", "crossbar", "--b-cross", "0"],
        ["trace", "record", "out.jsonl", "--slots", "-3"],
        ["trace", "replay", "out.jsonl", "--speedup", "0"],
        ["trace", "replay", "out.jsonl", "--b-in", "0"],
        ["stats", "summarize", "smoke-bernoulli", "--bootstrap", "-5"],
        ["sweep", "--seeds", "0"],
    ])
    def test_sizes_must_be_positive(self, argv, capsys, tmp_path,
                                    monkeypatch):
        """Port counts, speedup, buffer sizes and slot counts are >= 1
        (and bootstrap resamples >= 0): exit 2 before any trace is
        generated or any file is written."""
        from repro.traffic.base import TrafficModel

        def no_traffic(*args, **kwargs):
            raise AssertionError("trace generated before the size check")

        monkeypatch.setattr(TrafficModel, "generate", no_traffic)
        monkeypatch.setattr(TrafficModel, "arrival_source", no_traffic)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be an integer >= " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["run", "--load", "nan"],
         "--load: must be a finite number >= 0, got 'nan'"),
        (["run", "--load", "inf"],
         "--load: must be a finite number >= 0, got 'inf'"),
        (["run", "--load", "-1"],
         "--load: must be a finite number >= 0, got '-1'"),
        (["ratio", "--load", "1e309"],
         "--load: must be a finite number >= 0, got '1e309'"),
        (["trace", "record", "out.jsonl", "--load=-inf"],
         "--load: must be a finite number >= 0, got '-inf'"),
        (["sweep", "--loads", "abc"],
         "--loads: must be a finite number >= 0, got 'abc'"),
        (["sweep", "--loads", "0.8,nan"],
         "--loads: must be a finite number >= 0, got 'nan'"),
        (["figures", "--n", "0"], "--n: must be an integer >= 1, got '0'"),
        (["figures", "--n", "-2"], "--n: must be an integer >= 1, got '-2'"),
    ])
    def test_bad_load_or_port_count_is_a_usage_error(
            self, argv, message, capsys, tmp_path, monkeypatch):
        """A load must be finite and >= 0 and a port count >= 1: exit 2
        with a usage line, not a traceback from the traffic generator or
        ``SwitchConfig``, before any trace or file is made."""
        from repro.traffic.base import TrafficModel

        def no_traffic(*args, **kwargs):
            raise AssertionError("trace generated before the load check")

        monkeypatch.setattr(TrafficModel, "generate", no_traffic)
        monkeypatch.setattr(TrafficModel, "arrival_source", no_traffic)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: ")
        assert f"error: argument {message}" in err
        assert list(tmp_path.iterdir()) == []


class TestCommands:
    def test_figures(self, capsys):
        assert main(["figures", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 2" in out

    def test_run_gm(self, capsys):
        rc = main(["run", "--policy", "gm", "--n", "3", "--slots", "10",
                   "--load", "1.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GM" in out and "benefit" in out

    def test_run_with_delays_and_occupancy(self, capsys):
        rc = main(["run", "--policy", "pg", "--n", "3", "--slots", "10",
                   "--values", "pareto", "--load", "1.2",
                   "--delays", "--occupancy"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "delivery delay" in out
        assert "occupancy over" in out

    @pytest.mark.parametrize("argv", sorted(OCCUPANCY_STDOUT))
    def test_run_occupancy_stdout_pinned(self, argv, capsys):
        assert main(argv.split()) == 0
        assert capsys.readouterr().out == OCCUPANCY_STDOUT[argv]

    def test_run_crossbar_cpg(self, capsys):
        rc = main(["run", "--policy", "cpg", "--model", "crossbar",
                   "--n", "3", "--slots", "8", "--values", "two-value",
                   "--load", "1.3"])
        assert rc == 0
        assert "CPG" in capsys.readouterr().out

    def test_run_fifo_both_models(self, capsys):
        assert main(["run", "--policy", "fifo", "--n", "3",
                     "--slots", "8"]) == 0
        assert main(["run", "--policy", "fifo", "--model", "crossbar",
                     "--n", "3", "--slots", "8"]) == 0

    def test_ratio_gm_within_bound(self, capsys):
        rc = main(["ratio", "--policy", "gm", "--n", "3", "--slots", "12",
                   "--load", "1.2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ratio" in out

    def test_run_pg_beta_one(self, capsys):
        assert main(["run", "--policy", "pg", "--beta", "1",
                     "--slots", "5"]) == 0
        assert "PG(beta=1)" in capsys.readouterr().out

    def test_ratio_pg_custom_beta(self, capsys):
        rc = main(["ratio", "--policy", "pg", "--n", "3", "--slots", "10",
                   "--values", "uniform", "--load", "1.3",
                   "--beta", "2.0"])
        assert rc == 0

    def test_constants(self, capsys):
        assert main(["constants"]) == 0
        out = capsys.readouterr().out
        assert "pg_beta_star" in out

    @pytest.mark.parametrize("traffic", ["bernoulli", "bursty", "hotspot",
                                         "diagonal"])
    def test_all_traffic_models(self, traffic, capsys):
        rc = main(["run", "--policy", "gm", "--n", "3", "--slots", "6",
                   "--traffic", traffic])
        assert rc == 0


class TestBackendFlag:
    """The engine picks the kernel.  ``scenarios run`` keeps
    ``--backend`` for compatibility, accepting only ``auto``, which
    changes nothing; the other verbs have no such flag."""

    ARGV = ["scenarios", "run", "bursty-incast", "--slots", "5",
            "--no-artifacts"]

    def test_auto_prints_the_same(self, capsys):
        assert main(self.ARGV) == 0
        plain = capsys.readouterr().out
        assert "maxmatch" in plain
        assert main([*self.ARGV, "--backend", "auto"]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("value", ["reference", "fast"])
    def test_other_values_refused(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*self.ARGV, "--backend", value])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--policies", "gm", "--seeds", "1", "--slots", "5"],
        ["serve", "--max-jobs", "0"],
    ], ids=["sweep", "serve"])
    def test_no_flag_elsewhere(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--backend", "auto"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend auto" in (
            capsys.readouterr().err)


class TestBadInputIsOneLine:
    """Input the program cannot use is one line (exit 1) naming the
    input, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["run", "--traffic", "appmix", "--load", "0"],
        ["ratio", "--traffic", "appmix", "--load", "0"],
        ["sweep", "--traffic", "appmix", "--loads", "1,0"],
        ["trace", "record", "out.jsonl", "--traffic", "appmix",
         "--load", "0"],
    ], ids=["run", "ratio", "sweep", "trace-record"])
    def test_appmix_at_load_zero(self, argv, capsys, tmp_path,
                                 monkeypatch):
        """The other traffic kinds run at load 0; appmix's load scale
        must be > 0, which the verb reports in one line."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--slots", "5"])
        assert exc.value.code == "load_scale must be finite and > 0, got 0.0"
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, name", [
        (["scenarios", "show", "--file", "missing.toml"], "missing.toml"),
        (["scenarios", "run", "--file", "missing.toml", "--no-artifacts"],
         "missing.toml"),
        (["scenarios", "export", "--file", "missing.toml"], "missing.toml"),
        (["trace", "info", "text.json"], "text.json"),
        (["trace", "replay", "text.json"], "text.json"),
        (["trace", "info", "object.json"], "object.json"),
        (["trace", "replay", "bad_port.jsonl"], "bad_port.jsonl"),
        (["trace", "info", "legacy.json"], "legacy.json"),
        (["trace", "replay", "legacy.json"], "legacy.json"),
        (["trace", "info", "list.json"], "list.json"),
        (["stats", "summarize", "text.json"], "text.json"),
        (["stats", "summarize", "object.json"], "object.json"),
        (["obs", "export", "bad_line.jsonl"], "bad_line.jsonl"),
        (["obs", "tail", "bad_line.jsonl"], "bad_line.jsonl"),
    ], ids=["scenarios-show", "scenarios-run", "scenarios-export",
            "trace-info-text", "trace-replay-text", "trace-info-object",
            "trace-replay-port", "trace-info-legacy", "trace-replay-legacy",
            "trace-info-list", "stats-text", "stats-object", "obs-export", "obs-tail"])
    def test_bad_input_file(self, argv, name, capsys, tmp_path,
                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "text.json").write_text("not json\n")
        (tmp_path / "object.json").write_text('{"a": 1}\n')
        (tmp_path / "legacy.json").write_text(LEGACY_JSON_TRACE)
        (tmp_path / "list.json").write_text("[1, 2]\n")
        (tmp_path / "bad_line.jsonl").write_text(
            '{"event": "meta"}\n{not json\n')
        assert main(["trace", "record", "bad_port.jsonl", "--n", "2",
                     "--slots", "5"]) == 0
        stream = (tmp_path / "bad_port.jsonl").read_text()
        (tmp_path / "bad_port.jsonl").write_text(
            stream.replace("[0, 1.0, 0, 0, 1]", "[0, 1.0, 0, 0, 7]"))
        assert "[0, 1.0, 0, 0, 7]" in (tmp_path / "bad_port.jsonl").read_text()
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = exc.value.code
        assert isinstance(message, str) and len(message.splitlines()) == 1
        assert name in message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("scenario, old, new", [
        ("appmix-qos", "load_scale = 0.8", "load_scale = 0.0"),
        ("smoke-bernoulli", "load = 1.0", "load = 1.0\nbogus = 1"),
        ("smoke-bernoulli", 'traffic = "bernoulli"\n',
         'traffic = "replay"\n'),
        ("adversarial-overload", 'adversary = "single-output-overload"',
         'adversary = "nope"'),
        ("adversarial-overload", 'policy = "gm"', 'policy = "nope"'),
        ("adversarial-beta-admission", 'gadget = "beta-admission"',
         'gadget = "nope"'),
    ], ids=["load-scale-zero", "unknown-param", "replay-not-a-stream",
            "adversary-unknown", "adversary-victim-unknown",
            "gadget-unknown"])
    def test_spec_file_traffic_refused_before_any_point(
            self, scenario, old, new, capsys, tmp_path, monkeypatch):
        """A spec whose traffic model refuses its params, or whose
        replay path is not a trace file, exits with one line naming the
        spec file before any point runs or any attack is generated."""
        import repro.scenarios.spec as spec_module
        from repro.parallel import SweepExecutor

        monkeypatch.chdir(tmp_path)
        (tmp_path / "legacy.json").write_text(LEGACY_JSON_TRACE)
        assert main(["scenarios", "export", scenario, "-o", "spec.toml"]) == 0
        text = (tmp_path / "spec.toml").read_text()
        if "replay" in new:
            text = text.replace("load = 1.0", 'path = "legacy.json"')
        assert old in text
        (tmp_path / "spec.toml").write_text(text.replace(old, new))
        capsys.readouterr()

        def no_points(*args, **kwargs):
            raise AssertionError("a point ran before the spec was refused")

        monkeypatch.setattr(SweepExecutor, "run", no_points)
        monkeypatch.setattr(spec_module, "generate_adaptive_trace", no_points)
        for gadget in spec_module.ADVERSARIAL_GADGETS:
            monkeypatch.setitem(spec_module.ADVERSARIAL_GADGETS, gadget,
                                no_points)
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", "run", "--file", "spec.toml", "--no-artifacts"])
        message = exc.value.code
        assert isinstance(message, str) and len(message.splitlines()) == 1
        assert "spec.toml" in message
        assert capsys.readouterr().out == ""

    NAN, INF = float("nan"), float("inf")

    @staticmethod
    def _spec_file(tmp_path, traffic, params, values, value_params):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "param-check", "model": "cioq", "traffic": traffic,
            "traffic_params": params, "values": values,
            "value_params": value_params, "slots": 20, "seeds": [0],
            "include_opt": False, "switch": {"n_in": 2, "n_out": 2},
            "policies": [{"name": "gm"}]}))
        return path

    @pytest.mark.parametrize("traffic, params, values, value_params", [
        ("bernoulli", {"load": NAN}, "unit", {}),
        ("bernoulli", {"load": INF}, "unit", {}),
        ("hotspot", {"load": NAN}, "unit", {}),
        ("diagonal", {"load": INF}, "unit", {}),
        ("bursty", {"burst_load": NAN}, "unit", {}),
        ("bursty", {"burst_load": INF}, "unit", {}),
        ("markov", {"loads": [NAN, 1.0]}, "unit", {}),
        ("markov", {"loads": [INF, 1.0]}, "unit", {}),
        ("pareto-burst", {"shape": NAN}, "unit", {}),
        ("pareto-burst", {"burst_load": INF}, "unit", {}),
        ("pareto-burst", {"max_burst": INF}, "unit", {}),
        ("appmix", {"web": {"shape": NAN}}, "unit", {}),
        ("appmix", {"web": {"max_len": INF}}, "unit", {}),
        ("bernoulli", {"load": 1.0}, "two-value", {"alpha": NAN}),
        ("bernoulli", {"load": 1.0}, "two-value", {"alpha": INF}),
        ("bernoulli", {"load": 1.0}, "exponential", {"mean": NAN}),
        ("bernoulli", {"load": 1.0}, "pareto", {"shape": NAN}),
        ("bernoulli", {"load": 1.0}, "pareto", {"scale": INF}),
        ("bernoulli", {"load": 1.0}, "classes", {"base": NAN}),
        ("bernoulli", {"load": 1.0}, "uniform", {"hi": INF}),
    ])
    def test_spec_file_non_finite_param_refused(
            self, traffic, params, values, value_params, capsys, tmp_path,
            monkeypatch):
        """A NaN parameter, or an infinite one that makes a rate, a
        value or a count non-finite, is refused when the spec loads:
        one ``bad spec`` line, before any point runs."""
        from repro.parallel import SweepExecutor

        def no_points(*args, **kwargs):
            raise AssertionError("a point ran before the spec was refused")

        monkeypatch.setattr(SweepExecutor, "run", no_points)
        path = self._spec_file(tmp_path, traffic, params, values,
                               value_params)
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", "run", "--file", str(path), "--no-artifacts"])
        message = exc.value.code
        assert isinstance(message, str) and len(message.splitlines()) == 1
        assert message.startswith(f"bad spec: {path}: ")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("verb", [["run", "--no-artifacts"], ["show"]])
    def test_spec_file_overflowing_class_values_refused(
            self, verb, capsys, tmp_path, monkeypatch):
        """A finite class base whose top class value overflows a float is
        one ``bad spec`` line under both verbs, not a traceback."""
        from repro.parallel import SweepExecutor

        def no_points(*args, **kwargs):
            raise AssertionError("a point ran before the spec was refused")

        monkeypatch.setattr(SweepExecutor, "run", no_points)
        path = self._spec_file(tmp_path, "bernoulli", {"load": 1.0},
                               "classes", {"base": 1e200})
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", verb[0], "--file", str(path), *verb[1:]])
        message = exc.value.code
        assert isinstance(message, str) and len(message.splitlines()) == 1
        assert message.startswith(f"bad spec: {path}: ")
        assert "overflows" in message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("verb", [["run", "--no-artifacts"], ["show"]])
    @pytest.mark.parametrize("name, traffic, params, values, value_params", [
        ("alpha", "bernoulli", {"load": 1.0}, "two-value",
         {"alpha": 10**400}),
        ("shape", "pareto-burst", {"shape": 10**400}, "unit", {}),
    ])
    def test_spec_file_integer_past_float_range_refused(
            self, verb, name, traffic, params, values, value_params, capsys,
            tmp_path, monkeypatch):
        """A JSON integer parameter too large for a float (401 digits) is
        one ``bad spec`` line naming the parameter under both verbs, not
        an ``OverflowError`` traceback; infinity being allowed for a
        shape does not let it through."""
        from repro.parallel import SweepExecutor

        def no_points(*args, **kwargs):
            raise AssertionError("a point ran before the spec was refused")

        monkeypatch.setattr(SweepExecutor, "run", no_points)
        path = self._spec_file(tmp_path, traffic, params, values,
                               value_params)
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", verb[0], "--file", str(path), *verb[1:]])
        message = exc.value.code
        assert isinstance(message, str) and len(message.splitlines()) == 1
        assert message.startswith(f"bad spec: {path}: ")
        assert f"{name} must be" in message and "too large" in message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("verb", [["run", "--no-artifacts"], ["show"]])
    def test_spec_file_max_burst_past_int64_refused(
            self, verb, capsys, tmp_path, monkeypatch):
        """A pareto-burst ``max_burst`` past int64 is refused by the
        model: one ``bad spec`` line under both verbs, before any point
        runs.  With a tiny shape, whose bursts all clamp to
        ``max_burst``, it used to overflow the int64 burst counter."""
        from repro.parallel import SweepExecutor

        def no_points(*args, **kwargs):
            raise AssertionError("a point ran before the spec was refused")

        monkeypatch.setattr(SweepExecutor, "run", no_points)
        path = self._spec_file(tmp_path, "pareto-burst",
                               {"shape": 1e-300, "max_burst": 1e300},
                               "unit", {})
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", verb[0], "--file", str(path), *verb[1:]])
        message = exc.value.code
        assert isinstance(message, str) and len(message.splitlines()) == 1
        assert message.startswith(f"bad spec: {path}: ")
        assert "max_burst must be at most" in message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("verb", [["run", "--no-artifacts"], ["show"]])
    @pytest.mark.parametrize("traffic", ["bernoulli", "hotspot", "diagonal"])
    def test_spec_file_load_past_arrival_bound_refused(
            self, verb, traffic, capsys, tmp_path, monkeypatch):
        """A load whose arrival bound ``n_in * ceil(load) * slots``
        exceeds 2**31 - 1 is one ``bad spec`` line naming the bound under
        both verbs, before any draw.  The draw loop used to append a
        2x2 ``load = 1e18`` spec's arrivals until memory ran out."""
        from repro.traffic.base import TrafficModel

        def no_draws(*args, **kwargs):
            raise AssertionError("a trace was drawn before the refusal")

        monkeypatch.setattr(TrafficModel, "generate", no_draws)
        path = self._spec_file(tmp_path, traffic, {"load": 1e18}, "unit", {})
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", verb[0], "--file", str(path), *verb[1:]])
        message = exc.value.code
        assert isinstance(message, str) and len(message.splitlines()) == 1
        assert message.startswith(f"bad spec: {path}: load 1e+18 ")
        # 2 inputs x 10**18 x 20 slots.
        assert ("n_in * ceil(load) * slots = 40000000000000000000, more "
                "than 2147483647") in message
        assert capsys.readouterr().out == ""

    def test_spec_file_load_at_arrival_bound_passes(self, tmp_path, capsys):
        """The bound is inclusive: 2 inputs x 53,687,091 x 20 slots is
        2,147,483,640 arrivals at most, which ``show`` accepts; one more
        per input and slot passes 2**31 - 1."""
        path = self._spec_file(tmp_path, "bernoulli", {"load": 53687091},
                               "unit", {})
        assert main(["scenarios", "show", "--file", str(path)]) == 0
        path = self._spec_file(tmp_path, "bernoulli", {"load": 53687091.5},
                               "unit", {})
        with pytest.raises(SystemExit, match="= 2147483680, more than"):
            main(["scenarios", "show", "--file", str(path)])

    @pytest.mark.parametrize("argv", [
        ["run"], ["ratio"], ["sweep", "--seeds", "1"],
        ["trace", "record", "{out}"],
    ], ids=["run", "ratio", "sweep", "trace-record"])
    def test_cli_load_past_arrival_bound_refused(
            self, argv, capsys, tmp_path, monkeypatch):
        """The flag-built traffic of ``run``, ``ratio``, ``sweep`` and
        ``trace record`` is refused by the same arrival bound as a spec
        file, before any draw: one line naming the bound.  It used to
        draw until numpy failed to allocate, or until it was killed."""
        from repro.traffic.base import TrafficModel

        def no_draws(*args, **kwargs):
            raise AssertionError("a trace was drawn before the refusal")

        monkeypatch.setattr(TrafficModel, "generate", no_draws)
        monkeypatch.setattr(TrafficModel, "slot_arrivals", no_draws)
        out = str(tmp_path / "t.jsonl")
        load = "--loads" if argv[0] == "sweep" else "--load"
        with pytest.raises(SystemExit) as exc:
            main([*(a.format(out=out) for a in argv), "--n", "2", load,
                  "1e18", "--slots", "5"])
        message = exc.value.code
        assert isinstance(message, str) and len(message.splitlines()) == 1
        # 2 inputs x 10**18 x 5 slots.
        assert message == (
            "load 1e+18 bounds arrivals by n_in * ceil(load) * slots = "
            "10000000000000000000, more than 2147483647 (2**31 - 1)")
        assert capsys.readouterr().out == ""
        assert not os.path.exists(out)

    def test_slots_override_past_arrival_bound_refused(self, monkeypatch):
        """``--slots`` can take a builtin load past the bound too; the
        run refuses it with one ``bad override`` line before any draw."""
        from repro.traffic.base import TrafficModel

        def no_draws(*args, **kwargs):
            raise AssertionError("a trace was drawn before the refusal")

        monkeypatch.setattr(TrafficModel, "generate", no_draws)
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", "run", "smoke-bernoulli", "--slots",
                  str(10**9), "--no-artifacts"])
        message = exc.value.code
        assert isinstance(message, str) and len(message.splitlines()) == 1
        assert message.startswith("bad override: load ")
        assert "more than 2147483647" in message

    @pytest.mark.parametrize("extra", [[], ["--replicates", "2"]],
                             ids=["plain", "replicated"])
    @pytest.mark.parametrize("values, value_params, name", [
        ("exponential", {"mean": 1e308}, "exp(mean=1e+308)"),
        ("pareto", {"scale": 1e308}, "pareto(shape=1.5,scale=1e+308)"),
    ])
    def test_infinite_value_draws_refused(
            self, values, value_params, name, extra, capsys, tmp_path,
            monkeypatch):
        """A finite value parameter whose draws overflow to ``inf``
        passes the load check; the trace check then refuses the drawn
        trace, which the run reports as one ``bad spec`` line naming the
        value model, before any point runs, and nothing else on stdout
        or stderr."""
        from repro.parallel import SweepExecutor

        def no_points(*args, **kwargs):
            raise AssertionError("a point ran before the spec was refused")

        monkeypatch.setattr(SweepExecutor, "run", no_points)
        path = self._spec_file(tmp_path, "bernoulli", {"load": 1.0},
                               values, value_params)
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", "run", "--file", str(path), "--no-artifacts",
                  *extra])
        message = exc.value.code
        assert isinstance(message, str) and len(message.splitlines()) == 1
        assert message.startswith(f"bad spec: {path}: seed 0: ")
        assert f"with {name} values" in message and "got inf" in message
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("traffic, params, values, value_params", [
        ("pareto-burst", {"shape": INF}, "unit", {}),
        ("pareto-burst", {"shape": 1e-300}, "unit", {}),
        ("appmix", {"web": {"shape": INF}}, "unit", {}),
        ("bernoulli", {"load": 1.0}, "pareto", {"shape": INF}),
    ])
    def test_infinite_shape_draws_finite_traces(
            self, traffic, params, values, value_params, tmp_path, capsys):
        """A shape's infinite limit still draws finite burst lengths and
        values, and a tiny shape's infinite burst draws clamp to
        ``max_burst``, so the check lets both through."""
        path = self._spec_file(tmp_path, traffic, params, values,
                               value_params)
        assert main(["scenarios", "run", "--file", str(path),
                     "--no-artifacts"]) == 0
        assert "param-check" in capsys.readouterr().out


class TestTracePathErrors:
    """A missing trace file or output directory is one line (exit 1),
    like ``obs tail``, found before anything is recorded or replayed."""

    @pytest.mark.parametrize("argv, line", [
        (["trace", "info", "missing.jsonl"], "no trace file at missing.jsonl"),
        (["trace", "replay", "missing.jsonl", "--policy", "gm"],
         "no trace file at missing.jsonl"),
        (["trace", "replay", "recorded"], "no trace file at recorded"),
        (["trace", "record", "no/such/dir/x.jsonl", "--slots", "5"],
         "no directory no/such/dir"),
        (["trace", "replay", "recorded/t.jsonl", "-o",
          "no/such/dir/out.json"], "no directory no/such/dir"),
    ])
    def test_missing_path_is_one_line(self, argv, line, capsys, tmp_path,
                                      monkeypatch):
        import repro.simulation.engine as engine
        from repro.traffic.base import TrafficModel

        monkeypatch.chdir(tmp_path)
        (tmp_path / "recorded").mkdir()
        assert main(["trace", "record", "recorded/t.jsonl", "--n", "2",
                     "--slots", "5"]) == 0
        capsys.readouterr()

        def no_work(*args, **kwargs):
            raise AssertionError("work done before the path check")

        monkeypatch.setattr(TrafficModel, "arrival_source", no_work)
        for attr in ("run_cioq_streaming", "run_crossbar_streaming"):
            monkeypatch.setattr(engine, attr, no_work)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == line
        assert capsys.readouterr().out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["recorded"]
