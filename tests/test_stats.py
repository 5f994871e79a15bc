"""Tests for the replication & statistics subsystem (repro.stats) and
the per-seed ratio rule in repro.analysis.ratio."""

import json
import math
import random
import statistics
import struct

import pytest

from repro.analysis.ratio import RatioMeasurement, per_seed_ratios, ratio_of
from repro.cli import main as cli_main
from repro.parallel import SweepExecutor
from repro.scenarios import ScenarioSpec
from repro.stats import (
    SUMMARY_COLUMNS,
    ReplicatedRun,
    ReplicationPlan,
    Welford,
    bootstrap_interval,
    build_summary_rows,
    collect_series,
    half_width,
    load_artifact,
    normal_interval,
    replicate_scenario,
    summarize_artifact,
    write_replicated_artifacts,
    z_value,
)
from repro.stats import ci
from repro.stats.ci import _quantile


def tiny_spec(**overrides):
    fields = dict(
        name="test-replication",
        description="replication test scenario",
        model="cioq",
        switch={"n_in": 3, "n_out": 3, "b_in": 2, "b_out": 2},
        traffic="bernoulli",
        traffic_params={"load": 1.2},
        policies=({"name": "gm"},),
        slots=6,
        seeds=(0,),
        include_opt=False,
        metrics=("benefit", "n_sent"),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestWelford:
    def test_matches_batch_statistics(self):
        values = [3.0, 1.5, -2.25, 10.0, 0.125]
        acc = Welford.from_values(values)
        assert acc.n == 5
        assert acc.mean == pytest.approx(statistics.fmean(values), rel=1e-12)
        assert acc.variance == pytest.approx(statistics.variance(values),
                                             rel=1e-12)
        assert acc.std == pytest.approx(statistics.stdev(values), rel=1e-12)
        assert acc.sem == pytest.approx(acc.std / math.sqrt(5), rel=1e-12)

    def test_merge_equals_single_pass(self):
        values = [float(i) ** 1.5 for i in range(1, 40)]
        left = Welford.from_values(values[:13])
        right = Welford.from_values(values[13:])
        merged = left.merge(right)
        whole = Welford.from_values(values)
        assert merged.n == whole.n
        assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
        assert merged.variance == pytest.approx(whole.variance, rel=1e-12)

    def test_merge_with_empty(self):
        acc = Welford.from_values([1.0, 2.0])
        out = Welford().merge(acc)
        assert (out.n, out.mean) == (2, 1.5)
        assert Welford().merge(Welford()).n == 0

    def test_undefined_below_two_observations(self):
        assert math.isnan(Welford().variance)
        acc = Welford().add(4.0)
        assert math.isnan(acc.variance)
        assert math.isnan(acc.std)
        assert acc.mean == 4.0

    def test_constant_series_zero_variance(self):
        acc = Welford.from_values([2.5] * 10)
        assert acc.variance == 0.0
        assert acc.std == 0.0


class TestIntervals:
    def test_z_value_known_quantiles(self):
        assert z_value(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert z_value(0.99) == pytest.approx(2.575829, abs=1e-5)
        for bad in (0.0, 1.0, -1.0, 2.0):
            with pytest.raises(ValueError):
                z_value(bad)

    def test_normal_interval_formula(self):
        lo, hi = normal_interval(10.0, 2.0, 16, confidence=0.95)
        hw = z_value(0.95) * 2.0 / 4.0
        assert lo == pytest.approx(10.0 - hw)
        assert hi == pytest.approx(10.0 + hw)
        assert half_width(2.0, 16, 0.95) == pytest.approx(hw)

    def test_normal_interval_undefined(self):
        lo, hi = normal_interval(1.0, float("nan"), 5)
        assert math.isnan(lo) and math.isnan(hi)
        assert math.isnan(half_width(1.0, 1))

    def test_bootstrap_deterministic_and_sane(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        a = bootstrap_interval(values, resamples=400, seed=7)
        b = bootstrap_interval(values, resamples=400, seed=7)
        assert a == b
        c = bootstrap_interval(values, resamples=400, seed=8)
        assert a != c  # different stream
        lo, hi = a
        assert lo < statistics.fmean(values) < hi
        assert 1.0 <= lo and hi <= 8.0  # resampled means stay in range

    def test_bootstrap_undefined_below_two(self):
        lo, hi = bootstrap_interval([1.0], resamples=10, seed=0)
        assert math.isnan(lo) and math.isnan(hi)


def _loop_bootstrap(values, confidence=0.95, resamples=1000, seed=0):
    """The per-element bootstrap: one ``randrange`` per resampled value,
    summed left to right from ``0.0``.  ``bootstrap_interval`` draws the
    same stream in bulk and must match it bit for bit."""
    n = len(values)
    rng = random.Random(seed)
    means = []
    for _ in range(resamples):
        total = 0.0
        for _ in range(n):
            total += values[rng.randrange(n)]
        means.append(total / n)
    means.sort()
    alpha = 1.0 - confidence
    return (_quantile(means, alpha / 2.0), _quantile(means, 1.0 - alpha / 2.0))


def _bits(interval):
    """The interval's exact bytes: tells ``-0.0`` from ``0.0``."""
    return struct.pack("<2d", *interval)


def _bootstrap_values(kind, n):
    rng = random.Random(n)
    if kind == "float":
        return [rng.uniform(-5.0, 50.0) * 10.0 ** rng.randint(-3, 3)
                for _ in range(n)]
    if kind == "integral":
        return [rng.randint(0, 40) for _ in range(n)]
    return [-0.0] * n


class TestBulkBootstrapMatchesLoop:
    @pytest.mark.parametrize("kind", ["float", "integral", "negzero"])
    @pytest.mark.parametrize("resamples", [1, 17, 200])
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**40 + 3])
    @pytest.mark.parametrize("n", [2, 3, 7, 100, 513, 1000, 1024, 1025,
                                   4097])
    def test_bitwise(self, n, seed, resamples, kind):
        """Powers of two and their neighbours move ``randrange``'s
        rejection rate from 0 to almost 1/2; n = 4097 at 200 resamples
        spans four memory blocks."""
        values = _bootstrap_values(kind, n)
        got = bootstrap_interval(values, resamples=resamples, seed=seed)
        assert _bits(got) == _bits(
            _loop_bootstrap(values, resamples=resamples, seed=seed))

    @pytest.mark.parametrize("block", [1, 5, 1000])
    def test_bitwise_across_small_blocks(self, block, monkeypatch):
        """Indices drawn past one block open the next, whatever the
        block size, down to one resample per block."""
        monkeypatch.setattr(ci, "_BLOCK", block)
        for n in (3, 7, 100, 513):
            values = _bootstrap_values("float", n)
            for resamples in (1, 17, 60):
                got = bootstrap_interval(values, resamples=resamples, seed=n)
                assert _bits(got) == _bits(
                    _loop_bootstrap(values, resamples=resamples, seed=n))


class TestReplicatesBlockValidation:
    def test_round_trips_toml_and_json(self):
        spec = tiny_spec(replicates={"n": 16, "confidence": 0.9,
                                     "bootstrap": 100,
                                     "target_half_width": 0.5,
                                     "target_metric": "n_sent",
                                     "batch": 4})
        assert ScenarioSpec.from_toml(spec.to_toml()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="replicates keys"):
            tiny_spec(replicates={"n": 4, "stride": 2})

    def test_n_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="n must be"):
            tiny_spec(replicates={"n": 1})

    def test_confidence_must_be_fraction(self):
        with pytest.raises(ValueError, match="confidence"):
            tiny_spec(replicates={"n": 4, "confidence": 95})

    def test_target_half_width_positive(self):
        with pytest.raises(ValueError, match="target_half_width"):
            tiny_spec(replicates={"n": 4, "target_half_width": 0.0})

    def test_ratio_target_needs_opt(self):
        with pytest.raises(ValueError, match="include_opt"):
            tiny_spec(replicates={"n": 4, "target_metric": "ratio"})
        tiny_spec(include_opt=True,
                  replicates={"n": 4, "target_metric": "ratio"})

    def test_target_metric_must_be_exported(self):
        # A metric the scenario does not export would starve the
        # stopping rule forever (no values, never satisfied).
        with pytest.raises(ValueError, match="not exported"):
            tiny_spec(replicates={"n": 4,
                                  "target_metric": "value_arrived"})
        tiny_spec(metrics=("benefit", "value_arrived"),
                  replicates={"n": 4, "target_metric": "value_arrived"})

    def test_plan_from_spec_merges_overrides(self):
        spec = tiny_spec(replicates={"n": 8, "confidence": 0.9})
        plan = ReplicationPlan.from_spec(spec, n=4, bootstrap=50)
        assert (plan.n, plan.confidence, plan.bootstrap) == (4, 0.9, 50)
        assert plan.seeds() == (0, 1, 2, 3)
        with pytest.raises(ValueError):
            ReplicationPlan.from_spec(spec, n=1)

    def test_replicate_without_block_or_plan_raises(self):
        with pytest.raises(ValueError, match="replicates block"):
            replicate_scenario(tiny_spec())


class TestReplication:
    def test_shapes_and_summary_schema(self):
        spec = tiny_spec(include_opt=True)
        rrun = replicate_scenario(spec, plan=ReplicationPlan(n=4))
        assert isinstance(rrun, ReplicatedRun)
        assert rrun.seeds_used == (0, 1, 2, 3)
        assert not rrun.stopped_early
        assert len(rrun.run.rows) == 4
        for row in rrun.summary:
            assert tuple(row.keys()) == SUMMARY_COLUMNS
        pairs = {(r["policy"], r["metric"]) for r in rrun.summary}
        assert ("gm", "benefit") in pairs
        assert ("OPT", "benefit") in pairs
        assert ("gm", "ratio") in pairs
        assert ("OPT", "ratio") not in pairs

    def test_serial_vs_parallel_bit_identical(self, tmp_path):
        spec = tiny_spec(include_opt=True,
                         replicates={"n": 5, "bootstrap": 50})
        serial = replicate_scenario(spec)
        parallel = replicate_scenario(
            spec, executor=SweepExecutor(workers=3))
        assert serial.artifact() == parallel.artifact()
        a, b = tmp_path / "a", tmp_path / "b"
        write_replicated_artifacts(serial, str(a))
        write_replicated_artifacts(parallel, str(b))
        names = ("result.json", "result.csv", "scenario.toml",
                 "summary.json", "summary.csv")
        for fname in names:
            assert (a / spec.name / fname).read_bytes() == \
                   (b / spec.name / fname).read_bytes(), fname

    def test_half_width_shrinks_like_inverse_sqrt_n(self):
        """The acceptance property: quadrupling n roughly halves the
        benefit CI half-width (the band is generous because the std
        estimate itself varies between the n=8 and n=32 samples)."""
        spec = tiny_spec(slots=8)
        hw = {}
        for n in (8, 32):
            rrun = replicate_scenario(spec, plan=ReplicationPlan(n=n))
            (row,) = [r for r in rrun.summary
                      if (r["policy"], r["metric"]) == ("gm", "benefit")]
            assert row["n"] == n
            hw[n] = row["half_width"]
        assert hw[32] < hw[8]
        assert 1.2 <= hw[8] / hw[32] <= 4.0  # ~2 expected

    def test_early_stopping_stops_at_first_satisfied_batch(self):
        spec = tiny_spec()
        plan = ReplicationPlan(n=12, batch=4, target_half_width=1e6)
        rrun = replicate_scenario(spec, plan=plan)
        assert rrun.stopped_early
        assert rrun.seeds_used == (0, 1, 2, 3)
        assert len(rrun.run.rows) == 4
        # The recorded spec reflects the seeds that actually ran.
        assert rrun.spec.seeds == (0, 1, 2, 3)

    def test_early_stopping_unsatisfied_runs_every_seed(self):
        spec = tiny_spec()
        plan = ReplicationPlan(n=8, batch=4, target_half_width=1e-9)
        rrun = replicate_scenario(spec, plan=plan)
        assert not rrun.stopped_early
        assert rrun.seeds_used == tuple(range(8))

    def test_early_stopping_deterministic_across_workers(self):
        spec = tiny_spec()
        plan = ReplicationPlan(n=12, batch=4, target_half_width=1e6)
        serial = replicate_scenario(spec, plan=plan)
        parallel = replicate_scenario(
            spec, plan=plan, executor=SweepExecutor(workers=2))
        assert serial.artifact() == parallel.artifact()

    def test_base_seed_shifts_ladder(self):
        spec = tiny_spec()
        rrun = replicate_scenario(
            spec, plan=ReplicationPlan(n=3, base_seed=100))
        assert rrun.seeds_used == (100, 101, 102)

    def test_summarize_artifact_reproduces_summary(self, tmp_path):
        spec = tiny_spec(include_opt=True,
                         replicates={"n": 4, "bootstrap": 50})
        rrun = replicate_scenario(spec)
        write_replicated_artifacts(rrun, str(tmp_path))
        artifact = load_artifact(spec.name, results_root=str(tmp_path))
        rows = summarize_artifact(artifact)
        assert rows == rrun.summary
        summary = json.loads(
            (tmp_path / spec.name / "summary.json").read_text())
        assert summary["summary"] == rrun.summary
        assert summary["seeds_used"] == [0, 1, 2, 3]

    def test_load_artifact_accepts_dir_and_file(self, tmp_path):
        spec = tiny_spec(replicates={"n": 2})
        write_replicated_artifacts(replicate_scenario(spec), str(tmp_path))
        target = tmp_path / spec.name
        by_dir = load_artifact(str(target))
        by_file = load_artifact(str(target / "result.json"))
        assert by_dir == by_file
        with pytest.raises(FileNotFoundError):
            load_artifact("no-such-scenario", results_root=str(tmp_path))


class TestRatioEdgeCases:
    def test_ratio_of_conventions(self):
        assert ratio_of(0.0, 0.0) == 1.0
        assert ratio_of(5.0, 0.0) == float("inf")
        assert ratio_of(6.0, 3.0) == 2.0
        with pytest.raises(ValueError, match="negative"):
            ratio_of(-1.0, 2.0)
        with pytest.raises(ValueError, match="negative"):
            ratio_of(1.0, -2.0)

    def _measurement(self, onl, opt, bound=None):
        return RatioMeasurement(policy="gm", trace="t", model="cioq",
                                onl_benefit=onl, opt_benefit=opt,
                                n_packets=1, bound=bound)

    def test_both_zero_is_perfect(self):
        m = self._measurement(0.0, 0.0, bound=3.0)
        assert m.ratio == 1.0
        assert m.finite_ratio == 1.0
        assert m.within_bound

    def test_onl_zero_opt_positive_is_unbounded(self):
        m = self._measurement(0.0, 5.0, bound=3.0)
        assert m.ratio == float("inf")
        assert m.finite_ratio is None
        assert not m.within_bound  # violates any finite bound
        row = m.as_row()
        assert row["ratio"] is None  # JSON/CSV-safe
        json.dumps(row, allow_nan=False)

    def test_unbounded_with_no_bound_is_vacuously_ok(self):
        m = self._measurement(0.0, 5.0, bound=None)
        assert m.within_bound


class TestPerSeedRatioAggregation:
    def test_per_seed_ratios_marks_unbounded_as_none(self):
        assert per_seed_ratios([4.0, 5.0, 0.0], [2.0, 0.0, 0.0]) == \
               [2.0, None, 1.0]
        with pytest.raises(ValueError, match="length"):
            per_seed_ratios([1.0], [1.0, 2.0])

    def test_regression_mean_of_ratios_not_ratio_of_sums(self):
        """One big near-perfect seed must not wash out a catastrophic
        small seed: the aggregated ratio is the mean of per-seed
        ratios, which differs materially from sum(OPT)/sum(ONL)."""
        opt = [100.0, 10.0]
        onl = [100.0, 2.0]  # seed 2 is 5x off
        ratio_of_sums = sum(opt) / sum(onl)  # ~1.078: hides the blowup
        per_seed = per_seed_ratios(opt, onl)
        mean_of_ratios = statistics.fmean(per_seed)  # 3.0: shows it
        assert ratio_of_sums == pytest.approx(110 / 102)
        assert mean_of_ratios == pytest.approx(3.0)
        assert abs(mean_of_ratios - ratio_of_sums) > 1.5

        # The summary layer aggregates the per-seed way.
        rows = build_summary_rows({("gm", "ratio"): per_seed})
        (row,) = rows
        assert row["mean"] == pytest.approx(3.0)
        assert row["mean"] != pytest.approx(ratio_of_sums)

    def test_runner_aggregates_agree_with_summary_on_unbounded_seed(self):
        """result.json aggregates and summary.json rows read one ratio
        rule: a seed whose ratio is unbounded is left out of the mean
        (the policy is not nulled), and a run with any open OPT bracket
        reports a bracket on the mean, never a bare ratio."""
        from repro.scenarios.runner import compute_aggregates

        def both(onl, brackets):
            (gm_agg, _opt_agg) = compute_aggregates(
                ["gm"], {"gm": onl}, brackets)
            rows = [{"seed": seed, "gm": v, "OPT": hi, "OPT_lo": lo,
                     "OPT_hi": hi}
                    for seed, (v, (lo, hi)) in enumerate(zip(onl, brackets))]
            series = collect_series(rows, [], ["gm"], [], True)
            summary = {r["metric"]: r for r in build_summary_rows(series)
                       if r["policy"] == "gm"}
            return gm_agg, summary

        gm_agg, summary = both([0.0, 2.0], [(5.0, 5.0), (4.0, 4.0)])
        assert gm_agg["mean_ratio"] == 2.0  # finite seed only
        assert summary["ratio"]["mean"] == 2.0
        assert summary["ratio"]["n_undefined"] == 1
        # All ratios unbounded -> None, still no Infinity anywhere.
        gm_agg, summary = both([0.0], [(5.0, 5.0)])
        assert gm_agg["mean_ratio"] is None
        assert summary["ratio"]["mean"] is None
        # OPT 20 and 30 exact, the third seed bracketed in [15, 40],
        # against ONL 10: the bracket [13/6, 3] on the mean, no ratio.
        gm_agg, summary = both([10.0, 10.0, 10.0],
                               [(20.0, 20.0), (30.0, 30.0), (15.0, 40.0)])
        assert gm_agg["mean_ratio"] is None
        assert gm_agg["mean_ratio_lo"] == pytest.approx(13 / 6, abs=1e-6)
        assert gm_agg["mean_ratio_hi"] == pytest.approx(3.0)
        assert set(summary) == {"benefit", "ratio_lo", "ratio_hi"}
        for end in ("ratio_lo", "ratio_hi"):
            assert summary[end]["mean"] == pytest.approx(
                gm_agg[f"mean_{end}"], abs=1e-6)

    def test_replicated_aggregates_equal_run_scenario(self):
        # Pareto benefits are not whole, so aggregating the rows, which
        # round each benefit to 6 digits, would move pg's mean benefit
        # and mean ratio in the last digit.
        from repro.scenarios import get_scenario
        from repro.scenarios.runner import run_scenario

        spec = get_scenario("pareto-storm")
        single = run_scenario(spec)
        rrun = replicate_scenario(
            spec, ReplicationPlan.from_spec(spec, n=3, base_seed=0))
        assert rrun.run.aggregates == single.aggregates
        (pg,) = [a for a in single.aggregates if a["policy"] == "pg"]
        assert (pg["mean_benefit"], pg["mean_ratio"]) == (479.842692,
                                                           1.013815)
        means = {(r["policy"], r["metric"]): r["mean"] for r in rrun.summary}
        assert (means[("pg", "benefit")], means[("pg", "ratio")]) == (
            479.842692, 1.013815)

    def test_replicated_run_ratio_uses_per_seed_mean(self):
        spec = tiny_spec(include_opt=True)
        rrun = replicate_scenario(spec, plan=ReplicationPlan(n=4))
        (row,) = [r for r in rrun.summary
                  if (r["policy"], r["metric"]) == ("gm", "ratio")]
        opts = [float(r["OPT"]) for r in rrun.run.rows]
        onls = [float(r["gm"]) for r in rrun.run.rows]
        expected = statistics.fmean(
            [r for r in per_seed_ratios(opts, onls) if r is not None])
        assert row["mean"] == pytest.approx(expected, abs=1e-6)


class TestBracketedReplication:
    """A bounds-mode replicated run with an open OPT bracket: summary
    rows, result.json aggregates, ``stats summarize`` and early stopping
    read the same bracket-aware series."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        spec = tiny_spec(include_opt=True,
                         replicates={"n": 4, "bootstrap": 50})
        rrun = replicate_scenario(spec, opt_mode="bounds")
        # The ladder mixes degenerate and open brackets.
        brackets = [(r["OPT_lo"], r["OPT_hi"]) for r in rrun.run.rows]
        assert any(lo < hi for lo, hi in brackets)
        assert any(lo == hi for lo, hi in brackets)
        out = tmp_path_factory.mktemp("bracketed")
        write_replicated_artifacts(rrun, str(out))
        return rrun, out

    def test_summary_has_bracket_rows_matching_result_json(self, written):
        rrun, out = written
        metrics = [r["metric"] for r in rrun.summary if r["policy"] == "gm"]
        assert metrics == ["benefit", "n_sent", "ratio_lo", "ratio_hi"]
        result = json.loads(
            (out / rrun.spec.name / "result.json").read_text())
        (gm_agg,) = [a for a in result["aggregates"] if a["policy"] == "gm"]
        assert gm_agg["mean_ratio"] is None
        for row in rrun.summary:
            if row["metric"] in ("ratio_lo", "ratio_hi"):
                assert row["mean"] == pytest.approx(
                    gm_agg[f"mean_{row['metric']}"], abs=1e-6)

    def test_stats_summarize_reproduces_bracket_rows(self, written, capsys):
        rrun, out = written
        assert cli_main(["stats", "summarize", rrun.spec.name,
                         "--results", str(out), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == rrun.summary

    def test_early_stopping_watches_the_conservative_end(self, written):
        from repro.stats.replication import _target_values

        rrun, _ = written
        rows = rrun.run.rows
        assert _target_values(rrun.run, "gm", "ratio") == per_seed_ratios(
            [r["OPT_hi"] for r in rows], [r["gm"] for r in rows])


class TestStatsCLI:
    def test_scenarios_run_replicates_flag(self, tmp_path, capsys):
        rc = cli_main(["scenarios", "run", "smoke-bernoulli",
                       "--replicates", "4", "--ci", "95",
                       "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replication summary" in out
        target = tmp_path / "smoke-bernoulli"
        for fname in ("result.json", "result.csv", "scenario.toml",
                      "summary.json", "summary.csv"):
            assert (target / fname).exists(), fname
        header = (target / "summary.csv").read_text().splitlines()[0]
        assert header == ",".join(SUMMARY_COLUMNS)

    def test_replicated_spec_runs_replicated_by_default(self, capsys):
        rc = cli_main(["scenarios", "run", "replicated-smoke",
                       "--no-artifacts"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replication summary: 12/12 seeds" in out
        assert "boot_lo" in out  # the spec's block asks for bootstrap

    def test_stats_summarize_by_name_and_json(self, tmp_path, capsys):
        assert cli_main(["scenarios", "run", "smoke-bernoulli",
                         "--replicates", "4",
                         "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = cli_main(["stats", "summarize", "smoke-bernoulli",
                       "--results", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "summary of smoke-bernoulli" in out
        rc = cli_main(["stats", "summarize", "smoke-bernoulli",
                       "--results", str(tmp_path), "--json",
                       "--bootstrap", "20"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["metric"] for r in rows} >= {"benefit", "ratio"}

    def test_stats_summarize_missing_target_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no result artifact"):
            cli_main(["stats", "summarize", "nope",
                      "--results", str(tmp_path)])

    def test_bad_ci_exits(self, tmp_path):
        for bad in ("120", "100", "0", "-5"):
            with pytest.raises(SystemExit, match="--ci"):
                cli_main(["scenarios", "run", "smoke-bernoulli",
                          "--replicates", "2", "--ci", bad,
                          "--out", str(tmp_path)])

    def test_seeds_override_conflicts_with_replication(self):
        # Replicate seeds come from the plan's base_seed ladder; an
        # explicit --seeds list must error, not be silently dropped.
        with pytest.raises(SystemExit, match="--seeds"):
            cli_main(["scenarios", "run", "smoke-bernoulli",
                      "--replicates", "4", "--seeds", "5,6",
                      "--no-artifacts"])
        with pytest.raises(SystemExit, match="--seeds"):
            cli_main(["scenarios", "run", "replicated-smoke",
                      "--seeds", "5", "--no-artifacts"])

    def test_batch_flag_alone_activates_replication(self, capsys):
        rc = cli_main(["scenarios", "run", "smoke-bernoulli",
                       "--batch", "2", "--no-artifacts"])
        assert rc == 0
        assert "replication summary" in capsys.readouterr().out

    def test_summarize_plain_single_seed_artifact(self, tmp_path, capsys):
        """`stats summarize` also works on ordinary (non-replicated)
        artifacts — it aggregates whatever seeds the run recorded."""
        assert cli_main(["scenarios", "run", "smoke-bernoulli",
                         "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = cli_main(["stats", "summarize", "smoke-bernoulli",
                       "--results", str(tmp_path)])
        assert rc == 0
        assert "summary of smoke-bernoulli" in capsys.readouterr().out