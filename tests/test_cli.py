"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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

    @pytest.mark.parametrize("argv", [
        ["ratio", "--opt-mode", "windowed"],
        ["ratio", "--opt-mode", "windowed", "--opt-window", "0"],
        ["scenarios", "run", "smoke-bernoulli", "--opt-mode", "windowed",
         "--no-artifacts"],
        ["submit", "smoke-bernoulli", "--opt-mode", "windowed"],
    ])
    def test_windowed_opt_needs_window(self, argv, capsys, tmp_path,
                                       monkeypatch):
        """Exit 2 with one line naming --opt-window, before any trace
        is generated or any job is queued."""
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
        assert len(err.splitlines()) == 1 and "--opt-window" in err
        assert not queue.exists()


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
