"""Tests for the analysis harness: ratios, tables, efficiency."""

import pytest

from repro.analysis.efficiency import (
    compare_unit_matching_cost,
    compare_weighted_matching_cost,
    efficiency_scaling_table,
)
from repro.analysis.ratio import (
    RatioMeasurement,
    measure_cioq_ratio,
    measure_crossbar_ratio,
    ratio_series,
)
from repro.analysis.report import (
    csv_table,
    format_mean_ci,
    format_summary_table,
    format_table,
)
from repro.core.cgu import CGUPolicy
from repro.core.gm import GMPolicy
from repro.traffic.bernoulli import BernoulliTraffic


class TestRatioMeasurement:
    def test_cioq_measurement_fields(self, small_config, unit_trace):
        m = measure_cioq_ratio(GMPolicy(), unit_trace, small_config, bound=3.0)
        assert m.model == "cioq"
        assert m.ratio >= 1.0
        assert m.within_bound
        assert m.n_packets == len(unit_trace)

    def test_crossbar_measurement(self, small_config, unit_trace):
        m = measure_crossbar_ratio(
            CGUPolicy(), unit_trace, small_config, bound=3.0
        )
        assert m.model == "crossbar"
        assert m.within_bound

    def test_ratio_edge_cases(self):
        z = RatioMeasurement("p", "t", "cioq", 0.0, 0.0, 0)
        assert z.ratio == 1.0
        inf = RatioMeasurement("p", "t", "cioq", 0.0, 5.0, 5)
        assert inf.ratio == float("inf")
        assert not inf.within_bound or inf.bound is None

    def test_as_row_keys(self, small_config, unit_trace):
        row = measure_cioq_ratio(GMPolicy(), unit_trace, small_config).as_row()
        assert {"policy", "trace", "onl", "opt", "ratio", "bound", "ok"} <= set(
            row
        )

    def test_summary_and_worst(self, small_config):
        traces = [
            BernoulliTraffic(3, 3, load=1.0).generate(8, seed=s)
            for s in range(3)
        ]
        ms = [measure_cioq_ratio(GMPolicy(), t, small_config, bound=3.0)
              for t in traces]
        assert len(ms) == 3
        assert all(m.within_bound for m in ms)
        assert all(3.0 >= m.ratio >= 1.0 for m in ms)


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        txt = format_table(rows, title="T")
        lines = txt.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_bools_and_none(self):
        txt = format_table([{"ok": True, "x": None}, {"ok": False, "x": 1.5}])
        assert "yes" in txt and "NO" in txt and "-" in txt

    def test_column_subset(self):
        txt = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in txt.splitlines()[0]

    def test_float_digits(self):
        txt = format_table([{"x": 3.14159}], float_digits=2)
        assert txt.splitlines()[2].strip() == "3.1"

    def test_csv_table_verbatim(self):
        rows = [{"a": 0.123456789, "b": None}, {"a": 2, "b": "x,y"}]
        assert csv_table(rows) == 'a,b\n0.123456789,\n2,"x,y"\n'
        # A lone empty cell is quoted, so the row is not a blank line.
        assert csv_table(rows, columns=["b"]) == 'b\n""\n"x,y"\n'

    def test_csv_table_empty(self):
        assert csv_table([]) == ""

    @pytest.mark.parametrize("mean,half_width,cell", [
        (None, 0.1, "-"),
        (1.23456, None, "1.235"),
        (1.23456, 0.0123456, "1.235 ± 0.01235"),
    ])
    def test_format_mean_ci(self, mean, half_width, cell):
        assert format_mean_ci(mean, half_width) == cell

    @pytest.mark.parametrize("boot", [False, True])
    def test_format_summary_table(self, boot):
        row = {"policy": "gm", "metric": "ratio", "n": 5, "mean": 1.5,
               "half_width": 0.25, "ci_lo": 1.25, "ci_hi": 1.75,
               "boot_lo": 1.3 if boot else None,
               "boot_hi": 1.7 if boot else None}
        lines = format_summary_table([row], title="S").splitlines()
        columns = ["policy", "metric", "n", "mean", "ci_lo", "ci_hi"]
        if boot:
            columns += ["boot_lo", "boot_hi"]
        assert lines[0] == "S"
        assert lines[1].split() == columns
        assert "1.5 ± 0.25" in lines[3]


class TestEfficiency:
    def test_unit_comparison_fields(self):
        row = compare_unit_matching_cost(8, 0.5, trials=5, seed=1)
        assert row["n"] == 8
        assert row["greedy_ops"] > 0
        assert row["maxmatch_ops"] >= row["greedy_ops"]
        assert 0.5 <= row["size_ratio"] <= 1.0

    def test_weighted_comparison_fields(self):
        row = compare_weighted_matching_cost(6, 0.5, trials=3, seed=1)
        assert row["hungarian_ops"] > row["greedy_ops"]
        assert 0.5 <= row["weight_ratio"] <= 1.0 + 1e-9

    def test_scaling_table(self):
        rows = efficiency_scaling_table([4, 8], trials=3)
        assert [r["n"] for r in rows] == [4, 8]
        # Cost gap grows with switch size.
        assert rows[1]["maxmatch_ops"] > rows[0]["maxmatch_ops"]


def _bracketed(onl, lo, hi, bound=3.0, policy="gm"):
    return RatioMeasurement(
        policy=policy, trace="t", model="cioq", onl_benefit=onl,
        opt_benefit=hi, n_packets=4, bound=bound,
        opt_mode="bounds", opt_lower=lo, opt_upper=hi,
    )


def _exact(onl, opt, bound=3.0, policy="gm"):
    return RatioMeasurement(
        policy=policy, trace="t", model="cioq", onl_benefit=onl,
        opt_benefit=opt, n_packets=4, bound=bound,
    )


class TestIntervalRatios:
    """Interval-aware ratio semantics: bracketed (inexact-OPT)
    measurements never silently mix with exact ones, and bound checks
    only report what the bracket certifies (regression tests for
    docs/offline_opt.md's never-mix guarantee)."""

    def test_bracketed_measurement_endpoints(self):
        m = _bracketed(onl=10.0, lo=18.0, hi=24.0)
        assert not m.is_exact
        assert m.ratio == pytest.approx(2.4)       # conservative end
        assert m.ratio_lo == pytest.approx(1.8)
        assert m.ratio_hi == pytest.approx(2.4)
        assert m.within_bound

    def test_bound_check_needs_certified_violation(self):
        # Bracket straddles the bound: no *certified* violation.
        straddle = _bracketed(onl=10.0, lo=25.0, hi=35.0)
        assert straddle.within_bound
        # Even the certified lower end exceeds the bound: violation.
        violation = _bracketed(onl=10.0, lo=31.0, hi=35.0)
        assert not violation.within_bound

    def test_degenerate_bracket_is_exact(self):
        m = _bracketed(onl=10.0, lo=20.0, hi=20.0)
        assert m.is_exact
        assert m.ratio == m.ratio_lo == m.ratio_hi

    def test_as_row_bracket_columns_only_when_inexact(self):
        exact_row = _exact(onl=10.0, opt=20.0).as_row()
        assert "ratio_lo" not in exact_row and "opt_mode" not in exact_row
        row = _bracketed(onl=10.0, lo=18.0, hi=24.0).as_row()
        assert row["opt_mode"] == "bounds"
        assert row["opt_lo"] == 18.0 and row["opt_hi"] == 24.0
        assert row["ratio_lo"] == 1.8 and row["ratio_hi"] == 2.4

    def test_ratio_series_never_mixes_exact_and_bracketed(self):
        exact = ratio_series([(20.0, 20.0), (30.0, 30.0)], [10.0, 10.0])
        assert exact == {"ratio": [2.0, 3.0]}
        # One open bracket turns the whole run into bracket ends.
        mixed = ratio_series([(20.0, 20.0), (30.0, 30.0), (15.0, 40.0)],
                             [10.0, 10.0, 10.0])
        assert mixed == {"ratio_lo": [2.0, 3.0, 1.5],
                         "ratio_hi": [2.0, 3.0, 4.0]}
        # Unbounded seeds are None in every series.
        assert ratio_series([(5.0, 9.0), (0.0, 0.0)], [0.0, 0.0]) == {
            "ratio_lo": [None, 1.0], "ratio_hi": [None, 1.0]}

    def test_unbounded_bracketed_measurement(self):
        m = _bracketed(onl=0.0, lo=5.0, hi=9.0)
        assert m.finite_ratio is None
        assert not m.within_bound    # cannot certify consistency

    def test_measure_with_bounds_mode_brackets_exact(
        self, small_config, unit_trace
    ):
        exact = measure_cioq_ratio(
            GMPolicy(), unit_trace, small_config, bound=3.0)
        m = measure_cioq_ratio(
            GMPolicy(), unit_trace, small_config, bound=3.0,
            opt_mode="bounds")
        assert m.opt_mode == "bounds"
        assert m.opt_lower - 1e-9 <= exact.opt_benefit <= m.opt_upper + 1e-9
        assert m.ratio_lo <= exact.ratio <= m.ratio_hi + 1e-9
        assert m.opt_benefit == m.opt_upper
