"""Tests for delay statistics, occupancy reports and sparklines."""

import pytest

from repro.analysis.latency import delay_rows, occupancy_report, sparkline
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.obs import InMemoryRecorder
from repro.simulation.engine import run_cioq, run_crossbar
from repro.core.cgu import CGUPolicy
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.trace import Trace


class TestDelays:
    def test_same_slot_delivery_is_zero_delay(self):
        config = SwitchConfig.square(2, b_in=2, b_out=2)
        trace = Trace([Packet(0, 1.0, 3, 0, 1)], 2, 2)
        res = run_cioq(GMPolicy(), config, trace, record=True)
        assert res.delays(trace) == {0: 0}

    def test_contention_produces_positive_delays(self):
        config = SwitchConfig.square(2, b_in=4, b_out=4)
        # Four packets to the same output in slot 0: delays 0,1,2,3.
        trace = Trace(
            [Packet(i, 1.0, 0, i % 2, 0) for i in range(4)], 2, 2
        )
        res = run_cioq(GMPolicy(), config, trace, record=True)
        assert sorted(res.delays(trace).values()) == [0, 1, 2, 3]

    def test_delay_stats_fields(self):
        config = SwitchConfig.square(3, b_in=2, b_out=2)
        trace = BernoulliTraffic(3, 3, load=1.2).generate(15, seed=1)
        res = run_cioq(GMPolicy(), config, trace, record=True)
        stats = res.delay_stats(trace)
        assert stats["n"] == res.n_sent
        assert 0 <= stats["p50"] <= stats["p99"] <= stats["max"]
        assert stats["mean"] <= stats["max"]

    def test_requires_record(self):
        config = SwitchConfig.square(2, b_in=2, b_out=2)
        trace = Trace([Packet(0, 1.0, 0, 0, 1)], 2, 2)
        res = run_cioq(GMPolicy(), config, trace)  # record=False
        with pytest.raises(ValueError, match="record=True"):
            res.delays(trace)

    def test_empty_run_stats(self):
        config = SwitchConfig.square(2, b_in=2, b_out=2)
        trace = Trace([], 2, 2)
        res = run_cioq(GMPolicy(), config, trace, record=True)
        assert res.delay_stats(trace)["n"] == 0

    def test_delay_rows_helper(self):
        config = SwitchConfig.square(3, b_in=2, b_out=2)
        trace = BernoulliTraffic(3, 3, load=1.0).generate(10, seed=2)
        results = {
            "GM": run_cioq(GMPolicy(), config, trace, record=True),
            "PG": run_cioq(PGPolicy(), config, trace, record=True),
        }
        rows = delay_rows(results, trace)
        assert [r["policy"] for r in rows] == ["GM", "PG"]
        assert all(r["delivered"] > 0 for r in rows)


class TestOccupancy:
    """The occupancy series is an every-slot recorder's: rows of
    ``(slot, lane, voq, cross, out, ...)`` taken at the end of each
    executed slot."""

    def test_cioq_occupancy_recorded(self):
        config = SwitchConfig.square(3, b_in=2, b_out=2)
        trace = BernoulliTraffic(3, 3, load=1.3).generate(12, seed=3)
        rec = InMemoryRecorder(every_k=1)
        res = run_cioq(GMPolicy(), config, trace, metrics=rec)
        series = rec.series
        assert [row[0] for row in series] == list(range(len(series)))
        assert len(series) == rec.counters["slots_total"] <= res.horizon
        # Crossbar column is zero for CIOQ runs.
        assert all(row[3] == 0 for row in series)
        # Final state is drained.
        assert series[-1][2] == 0 and series[-1][4] == 0

    def test_crossbar_occupancy_recorded(self):
        config = SwitchConfig.square(3, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(3, 3, load=1.3).generate(12, seed=3)
        rec = InMemoryRecorder(every_k=1)
        run_crossbar(CGUPolicy(), config, trace, metrics=rec)
        assert any(row[3] > 0 for row in rec.series)  # crosspoints used

    def test_occupancy_report_text(self):
        config = SwitchConfig.square(3, b_in=2, b_out=2)
        trace = BernoulliTraffic(3, 3, load=1.3).generate(12, seed=3)
        rec = InMemoryRecorder(every_k=1)
        run_cioq(GMPolicy(), config, trace, metrics=rec)
        text = occupancy_report(rec.series)
        assert text.startswith(f"occupancy over {len(rec.series)} slots")
        assert "VOQs" in text and "|" in text

    def test_occupancy_report_without_series(self):
        assert "no occupancy series" in occupancy_report([])


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_all_zero(self):
        assert set(sparkline([0, 0, 0])) == {" "}

    def test_monotone_ramp(self):
        s = sparkline([0, 1, 2, 3, 4])
        assert len(s) == 5
        assert s[-1] == "@"

    def test_resampling_to_width(self):
        s = sparkline(list(range(1000)), width=40)
        assert len(s) == 40
        assert s[-1] == "@"

    def test_peak_preserved_by_max_resampling(self):
        vals = [0.0] * 100
        vals[57] = 10.0
        s = sparkline(vals, width=20)
        assert "@" in s
