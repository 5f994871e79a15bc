"""Streaming trace ingestion + the replay-path bugfix regressions.

Covers the four fixes that the streaming rewrite depends on:

1. explicit trailing-idle ``n_slots`` on :class:`Trace` (serialized
   and honored by replay tiling);
2. replay carrying recorded packet *values* through the streaming path;
3. ``normalized_dst_weights`` rejecting NaN/inf;
4. the ``reset()`` contract clearing stateful models between runs;

plus the chunked stream format itself (validation errors, O(chunk)
readers) and end-to-end engine equality: ``run_cioq_streaming`` /
``run_crossbar_streaming`` driven by an ``arrival_source`` produce
results identical to the batch engine on the materialized trace.
"""

import json
import re

import numpy as np
import pytest

from _kernels import reference_run
from repro.core import CGUPolicy, CPGPolicy, GMPolicy, PGPolicy
from repro.simulation.engine import run_cioq_streaming, run_crossbar_streaming
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.traffic import (
    ApplicationMixTraffic,
    BernoulliTraffic,
    BurstyTraffic,
    MarkovModulatedTraffic,
    ParetoBurstTraffic,
    Trace,
    TraceReplayTraffic,
)
from repro.traffic.base import normalized_dst_weights
from repro.traffic.trace import (
    STREAM_FORMAT,
    STREAM_VERSION,
    iter_stream_slots,
    read_stream_header,
    write_stream,
)
from repro.traffic.values import two_value, uniform_values


def _rows(trace):
    return [(p.pid, p.value, p.arrival, p.src, p.dst)
            for p in trace.packets]


class TestExplicitNSlots:
    """Bugfix 1: a trace can end with intended idle slots."""

    def test_default_is_derived(self):
        t = Trace([Packet(0, 1.0, 3, 0, 0)], 2, 2)
        assert t.n_slots == 4

    def test_explicit_trailing_idle_kept(self):
        t = Trace([Packet(0, 1.0, 3, 0, 0)], 2, 2, n_slots=10)
        assert t.n_slots == 10
        assert list(t.arrivals(9)) == []
        assert len(t.arrival_slots()) == 10

    def test_empty_trace_with_slots(self):
        t = Trace([], 2, 2, n_slots=5)
        assert t.n_slots == 5 and len(t) == 0
        assert t.offered_load() == 0.0

    def test_rejects_n_slots_below_derived(self):
        with pytest.raises(ValueError, match="smaller than the last"):
            Trace([Packet(0, 1.0, 3, 0, 0)], 2, 2, n_slots=3)

    def test_repeat_tiles_with_trailing_idle_period(self):
        # A 1-packet recording padded to 4 slots must tile with period
        # 4, not period 1 (the old derived-n_slots bug).
        src = Trace([Packet(0, 3.0, 0, 0, 0)], 2, 2, n_slots=4)
        out = TraceReplayTraffic(src, repeat=True).generate(12)
        assert [p.arrival for p in out.packets] == [0, 4, 8]
        assert all(p.value == 3.0 for p in out.packets)
        assert out.n_slots == 12

    def test_generate_preserves_requested_slots(self):
        t = BernoulliTraffic(2, 2, load=0.3).generate(50, seed=0)
        assert t.n_slots == 50


class TestReplayValues:
    """Bugfix 2: the streaming path carries recorded values."""

    def test_slot_arrivals_yield_recorded_values(self):
        src = BernoulliTraffic(2, 2, load=2.0,
                               value_model=uniform_values(1, 50)
                               ).generate(5, seed=3)
        assert not src.is_unit_valued
        slots = TraceReplayTraffic(src).slot_arrivals(0)
        got = [tuple(map(list, next(slots))) for _ in range(7)]
        assert got == [([p.src for p in ps], [p.dst for p in ps],
                        [p.value for p in ps])
                       for ps in src.arrival_slots()] + [([], [], [])] * 2

    def test_streaming_equals_generate_on_non_unit_trace(self):
        src = BurstyTraffic(3, 3, burst_load=2.0,
                            value_model=two_value(9.0, 0.4)
                            ).generate(20, seed=5)
        assert not src.is_unit_valued
        replay = TraceReplayTraffic(src)
        materialized = replay.generate(20)
        source = replay.arrival_source()
        streamed = []
        for t in range(20):
            for s, d, v in source(t, None):
                streamed.append((len(streamed), v, t, s, d))
        assert streamed == _rows(materialized) == _rows(src)

    def test_file_backed_repeat_streams_like_generate(self, tmp_path):
        # A period of 10 slots whose last 3 are idle, saved in chunks of
        # 3 slots: streaming 2.5 periods from the file re-reads it per
        # period and must tile exactly like the in-memory replay.
        recorded = BurstyTraffic(3, 3, burst_load=1.5,
                                 value_model=two_value(4.0, 0.5)
                                 ).generate(7, seed=2)
        src = Trace(recorded.packets, 3, 3, n_slots=10)
        assert len(src) > 0 and src.arrival_slots()[-1] == ()
        path = str(tmp_path / "rec.jsonl")
        src.save(path, chunk_slots=3)
        replay = TraceReplayTraffic(path, repeat=True)
        source = replay.arrival_source()
        streamed = []
        for t in range(25):
            for s, d, v in source(t, None):
                streamed.append((len(streamed), v, t, s, d))
        assert replay._trace is None  # streamed, never loaded
        expected = TraceReplayTraffic(src, repeat=True).generate(25)
        assert len(expected) > 2 * len(src)
        assert streamed == _rows(expected)
        assert _rows(replay.generate(25)) == _rows(expected)

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_empty_recording_with_repeat_terminates(self, tmp_path,
                                                    on_disk):
        src = Trace([], 2, 2, n_slots=0)
        if on_disk:
            src.save(str(tmp_path / "empty.jsonl"))
            src = str(tmp_path / "empty.jsonl")
        replay = TraceReplayTraffic(src, repeat=True)
        slots = replay.slot_arrivals(0)
        assert [tuple(map(len, next(slots))) for _ in range(4)] == \
            [(0, 0, 0)] * 4
        out = replay.generate(6)
        assert (len(out), out.n_slots) == (0, 6)


class TestFiniteWeights:
    """Bugfix 3: NaN/inf destination weights fail fast."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            normalized_dst_weights(3, [0.5, bad, 0.2])

    def test_model_constructor_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            BurstyTraffic(2, 3, dst_weights=[1.0, float("nan"), 1.0])

    def test_valid_weights_still_normalize(self):
        w = normalized_dst_weights(2, [1.0, 3.0])
        assert w.tolist() == [0.25, 0.75]

    def test_overflowing_sum_rejected(self):
        # Each weight is finite, but their sum is inf: normalizing would
        # make every probability 0 and the destination cdf NaN.
        with pytest.raises(ValueError, match="finite sum"):
            BurstyTraffic(2, 2, dst_weights=[1e308, 1e308])


class TestResetContract:
    """Bugfix 4: stateful models reset between runs."""

    @pytest.mark.parametrize("make", [
        lambda: MarkovModulatedTraffic(3, 3, loads=[0.2, 2.0]),
        lambda: ParetoBurstTraffic(3, 3),
        lambda: BurstyTraffic(3, 3),
        lambda: ApplicationMixTraffic(3, 3),
    ])
    def test_reuse_after_mid_run_state_is_deterministic(self, make):
        fresh = make().generate(30, seed=11)
        dirty = make()
        # Leak mid-run state: query arbitrary non-zero slots directly.
        rng = np.random.default_rng(999)
        for slot in (4, 5, 6):
            dirty.arrivals_for_slot(slot, rng)
        # generate() must reset, so the leaked state cannot bleed in.
        again = dirty.generate(30, seed=11)
        assert (again.name, again.content_digest()) == \
               (fresh.name, fresh.content_digest())
        # arrival_source() resets too.
        source = dirty.arrival_source(seed=11)
        streamed = []
        for t in range(30):
            for s, d, v in source(t, None):
                streamed.append((len(streamed), v, t, s, d))
        assert streamed == _rows(fresh)

    def test_base_reset_is_noop(self):
        m = BernoulliTraffic(2, 2, load=1.0)
        m.reset()  # stateless models keep the no-op default


class TestStreamFormat:
    def _write(self, tmp_path, trace, chunk_slots=4):
        path = str(tmp_path / "t.jsonl")
        trace.save(path, chunk_slots=chunk_slots)
        return path

    @pytest.mark.parametrize("text", [
        json.dumps({"name": "t", "n_in": 2, "n_out": 2, "n_slots": 1,
                    "packets": [[0, 1.0, 0, 0, 1]]}),
        "[1, 2]\n", "not json\n", ""])
    def test_other_files_refused(self, tmp_path, text):
        # The JSON document format of earlier releases among them.
        path = tmp_path / "t.json"
        path.write_text(text)
        match = re.escape(f"{path}: not a {STREAM_FORMAT} file")
        for read in (Trace.load, TraceReplayTraffic, read_stream_header):
            with pytest.raises(ValueError, match=match):
                read(str(path))

    def test_iter_stream_slots_yields_every_slot(self, tmp_path):
        trace = Trace([Packet(0, 1.0, 2, 0, 0)], 2, 2, n_slots=9)
        path = self._write(tmp_path, trace, chunk_slots=3)
        slots = list(iter_stream_slots(path))
        assert [s for s, _ in slots] == list(range(9))
        assert [len(ps) for _, ps in slots] == [0, 0, 1, 0, 0, 0, 0, 0, 0]

    def test_header_validation(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"format": "repro-trace-stream",
                                 "version": 99, "n_in": 2, "n_out": 2,
                                 "n_slots": 1, "n_packets": 0}) + "\n")
        with pytest.raises(ValueError, match="version"):
            read_stream_header(path)

    def test_packet_count_mismatch_detected(self, tmp_path):
        trace = BernoulliTraffic(2, 2, load=2.0).generate(4, seed=1)
        path = self._write(tmp_path, trace)
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["n_packets"] += 1
        with open(path, "w") as fh:
            fh.write("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="promises"):
            list(iter_stream_slots(path))

    def test_out_of_range_packet_detected(self, tmp_path):
        trace = Trace([Packet(0, 1.0, 0, 0, 0)], 1, 1, n_slots=2)
        path = self._write(tmp_path, trace)
        lines = open(path).read().splitlines()
        chunk = json.loads(lines[1])
        chunk["packets"][0][3] = 5  # src out of range
        with open(path, "w") as fh:
            fh.write("\n".join([lines[0], json.dumps(chunk)]) + "\n")
        with pytest.raises(ValueError, match="out of range"):
            list(iter_stream_slots(path))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_value_rejected_on_load(self, tmp_path, bad):
        # Python's json parses NaN and Infinity, so only the packet
        # model stands between such a row and the simulator.
        trace = Trace([Packet(0, 1.0, 0, 0, 0)], 1, 1, n_slots=2)
        path = self._write(tmp_path, trace)
        lines = open(path).read().splitlines()
        lines[1] = lines[1].replace("1.0", bad, 1)
        assert bad in lines[1]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="finite"):
            Trace.load(path)

    def test_overlapping_chunks_rejected(self, tmp_path):
        # Chunk base 0 reaches slot 3, then a chunk starts at base 2:
        # a forward reader would deliver pid 1 at slot 4, a materializing
        # one at slot 2.  Every entry point refuses the file instead.
        path = tmp_path / "overlap.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in [
            {"format": STREAM_FORMAT, "version": STREAM_VERSION,
             "name": "overlap", "n_in": 1, "n_out": 1, "n_slots": 6,
             "n_packets": 2, "chunk_slots": 2},
            {"base": 0, "packets": [[0, 1.0, 3, 0, 0]]},
            {"base": 2, "packets": [[1, 1.0, 2, 0, 0]]},
        ]))
        match = re.escape(f"{path}: chunk base 2 overlaps")
        with pytest.raises(ValueError, match=match):
            Trace.load(str(path))
        with pytest.raises(ValueError, match=match):
            list(iter_stream_slots(str(path)))
        with pytest.raises(ValueError, match=match):
            TraceReplayTraffic(str(path)).generate(6)
        source = TraceReplayTraffic(str(path)).arrival_source()
        with pytest.raises(ValueError, match=match):
            for t in range(6):
                source(t, None)

    def test_arrival_source_rejects_slot_skips(self):
        m = BernoulliTraffic(2, 2, load=1.0)
        source = m.arrival_source(seed=0)
        source(0, None)
        with pytest.raises(ValueError, match="consecutive"):
            source(2, None)


class TestWriteStream:
    """The one stream writer behind :meth:`Trace.save` and
    ``repro trace record``: per-slot ``[pid, value, arrival, src, dst]``
    rows in, chunked JSONL out."""

    @staticmethod
    def _trace():
        # Five idle slots after the last possible arrival.
        trace = BernoulliTraffic(
            3, 3, load=1.3, value_model=uniform_values(1, 9)
        ).generate(20, seed=4)
        return Trace(trace.packets, 3, 3, name="w", n_slots=25)

    @pytest.mark.parametrize("chunk_slots", [1, 2, 5, 16, 64])
    def test_round_trip_every_chunk_width(self, tmp_path, chunk_slots):
        trace = self._trace()
        path = str(tmp_path / "w.jsonl")
        slots = [[[p.pid, p.value, p.arrival, p.src, p.dst] for p in ps]
                 for ps in trace.arrival_slots()]
        n = write_stream(path, slots, 3, 3, "w", chunk_slots)
        assert n == len(trace) > 0
        back = Trace.load(path)
        assert (back.name, back.n_slots) == ("w", 25)
        assert _rows(back) == _rows(trace)
        replayed = [[(p.pid, p.value, p.arrival, p.src, p.dst) for p in ps]
                    for _, ps in iter_stream_slots(path)]
        assert replayed == [[(p.pid, p.value, p.arrival, p.src, p.dst)
                             for p in ps] for ps in trace.arrival_slots()]

    def test_layout(self, tmp_path):
        slots = [[[0, 2.5, 0, 0, 1]], [],
                 [[1, 1.0, 2, 1, 0], [2, 4.0, 2, 0, 0]], []]
        path = tmp_path / "w.jsonl"
        assert write_stream(str(path), slots, 2, 2, "hand", 2) == 3
        assert path.read_text(encoding="utf-8") == "".join(
            json.dumps(line) + "\n" for line in [
                {"format": STREAM_FORMAT, "version": STREAM_VERSION,
                 "name": "hand", "n_in": 2, "n_out": 2, "n_slots": 4,
                 "n_packets": 3, "chunk_slots": 2},
                {"base": 0, "packets": [[0, 2.5, 0, 0, 1]]},
                {"base": 2, "packets": [[1, 1.0, 2, 1, 0],
                                        [2, 4.0, 2, 0, 0]]},
            ])

    def test_idle_chunks_not_written(self, tmp_path):
        slots = ([[[0, 1.0, 0, 0, 0]]] + [[] for _ in range(5)]
                 + [[[1, 1.0, 6, 1, 1]], [], []])
        path = str(tmp_path / "w.jsonl")
        write_stream(path, iter(slots), 2, 2, "gap", 2)
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert lines[0]["n_slots"] == 9
        assert [chunk["base"] for chunk in lines[1:]] == [0, 6]
        assert [len(ps) for _, ps in iter_stream_slots(path)] == [
            1, 0, 0, 0, 0, 0, 1, 0, 0]

    def test_no_slots(self, tmp_path):
        path = str(tmp_path / "w.jsonl")
        assert write_stream(path, iter(()), 2, 3, "none", 4) == 0
        with open(path, encoding="utf-8") as fh:
            assert len(fh.readlines()) == 1  # header only
        header = read_stream_header(path)
        assert (header["n_slots"], header["n_packets"]) == (0, 0)
        back = Trace.load(path)
        assert (len(back), back.n_slots, back.n_out) == (0, 0, 3)

    @pytest.mark.parametrize("chunk_slots", [0, -3])
    def test_bad_chunk_slots_rejected_first(self, tmp_path, chunk_slots):
        pulled = []

        def slots():
            pulled.append(0)
            yield []

        with pytest.raises(ValueError, match="chunk_slots must be >= 1"):
            write_stream(str(tmp_path / "w.jsonl"), slots(), 2, 2, "x",
                         chunk_slots)
        assert pulled == []
        assert list(tmp_path.iterdir()) == []

    def test_failed_source_keeps_existing_file(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text("previous\n", encoding="utf-8")

        def slots():
            yield [[0, 1.0, 0, 0, 0]]
            raise RuntimeError("source died")

        with pytest.raises(RuntimeError, match="source died"):
            write_stream(str(path), slots(), 1, 1, "x", 1)
        assert path.read_text(encoding="utf-8") == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["w.jsonl"]

    def test_bare_file_name_writes_to_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_stream("w.jsonl", [[[0, 1.0, 0, 0, 0]]], 1, 1, "x", 4)
        assert [p.name for p in tmp_path.iterdir()] == ["w.jsonl"]
        assert len(Trace.load(str(tmp_path / "w.jsonl"))) == 1


class TestTraceRecord:
    """``repro trace record`` streams a model through the same writer as
    :meth:`Trace.save`, without materializing the trace."""

    def _argv(self, traffic, path, chunk_slots, values="pareto"):
        return ["trace", "record", str(path), "--traffic", traffic,
                "--values", values, "--n", "4", "--slots", "300",
                "--seed", "7", "--chunk-slots", str(chunk_slots)]

    @pytest.mark.parametrize("traffic", ["bernoulli", "appmix", "bursty"])
    def test_bytes_match_save(self, tmp_path, traffic):
        from repro.cli import _build_traffic, build_parser, main

        argv = self._argv(traffic, tmp_path / "rec.jsonl", 16)
        assert main(argv) == 0
        model = _build_traffic(build_parser().parse_args(argv))
        model.generate(300, seed=7).save(str(tmp_path / "gen.jsonl"), 16)
        assert ((tmp_path / "rec.jsonl").read_bytes()
                == (tmp_path / "gen.jsonl").read_bytes())
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "gen.jsonl", "rec.jsonl"]

    @pytest.mark.parametrize("traffic,chunk_slots", [
        ("hotspot", 1), ("diagonal", 7), ("bernoulli", 300),
        ("bursty", 1000)])
    def test_unit_values_match_save(self, tmp_path, traffic,
                                           chunk_slots):
        from repro.cli import _build_traffic, build_parser, main

        argv = self._argv(traffic, tmp_path / "rec.jsonl", chunk_slots,
                          values="unit")
        assert main(argv) == 0
        model = _build_traffic(build_parser().parse_args(argv))
        model.generate(300, seed=7).save(str(tmp_path / "gen.jsonl"),
                                         chunk_slots)
        assert ((tmp_path / "rec.jsonl").read_bytes()
                == (tmp_path / "gen.jsonl").read_bytes())

    def test_reports_what_it_wrote(self, tmp_path, capsys):
        from repro.cli import _build_traffic, build_parser, main

        path = tmp_path / "rec.jsonl"
        argv = self._argv("bernoulli", path, 16)
        assert main(argv) == 0
        header = read_stream_header(str(path))
        assert capsys.readouterr().out == (
            f"wrote {path}: {header['n_packets']} packets over 300 slots "
            f"(4x4)\n")
        assert header["n_packets"] == len(Trace.load(str(path))) > 0
        model = _build_traffic(build_parser().parse_args(argv))
        assert header["name"] == (
            f"{model.name}/{model.value_model.name}/seed7")

    def test_idle_recording_keeps_its_slots(self, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "rec.jsonl")
        assert main(["trace", "record", path, "--load", "0",
                     "--slots", "50", "--chunk-slots", "8"]) == 0
        back = Trace.load(path)
        assert (len(back), back.n_slots) == (0, 50)

    def test_zero_chunk_slots_rejected_before_writing(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(self._argv("bernoulli", tmp_path / "rec.jsonl", 0))
        message = str(exc.value.code)
        assert "chunk_slots must be >= 1" in message
        assert "\n" not in message
        assert list(tmp_path.iterdir()) == []


class TestEngineStreamingEquality:
    """run_*_streaming over an arrival_source == batch engine over the
    materialized trace, field for field — and, with ``record=True``,
    log entry for log entry."""

    CONFIG = SwitchConfig(n_in=3, n_out=3, speedup=1, b_in=2, b_out=2,
                          b_cross=1)

    def _assert_equal(self, a, b, record):
        assert a.summary() == b.summary()
        assert a.benefit == b.benefit
        if record:
            assert a.schedule_log and a.transmit_log
            assert a.schedule_log == b.schedule_log
            assert a.transmit_log == b.transmit_log

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("policy_cls", [GMPolicy, PGPolicy])
    def test_cioq_streaming_matches_batch(self, policy_cls, record):
        model = ApplicationMixTraffic(3, 3,
                                      value_model=two_value(7.0, 0.3))
        trace = model.generate(40, seed=2)
        batch = reference_run("cioq", policy_cls(), self.CONFIG, trace,
                              record=record)
        stream = run_cioq_streaming(policy_cls(), self.CONFIG,
                                    model.arrival_source(seed=2), 40,
                                    record=record)
        self._assert_equal(batch, stream, record)

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("policy_cls", [CGUPolicy, CPGPolicy])
    def test_crossbar_streaming_matches_batch(self, policy_cls, record):
        model = BurstyTraffic(3, 3, burst_load=2.5,
                              value_model=uniform_values(1, 20))
        trace = model.generate(30, seed=4)
        batch = reference_run("crossbar", policy_cls(), self.CONFIG, trace,
                              record=record)
        stream = run_crossbar_streaming(policy_cls(), self.CONFIG,
                                        model.arrival_source(seed=4), 30,
                                        record=record)
        self._assert_equal(batch, stream, record)

    @pytest.mark.parametrize("record", [False, True])
    def test_stream_file_replay_matches_batch(self, tmp_path, record):
        model = BernoulliTraffic(3, 3, load=1.5,
                                 value_model=uniform_values(1, 20))
        trace = model.generate(25, seed=9)
        path = str(tmp_path / "rec.jsonl")
        trace.save(path, chunk_slots=4)
        replay = TraceReplayTraffic(path)
        assert replay._trace is None
        stream = run_cioq_streaming(GMPolicy(), self.CONFIG,
                                    replay.arrival_source(), 25,
                                    record=record)
        batch = reference_run("cioq", GMPolicy(), self.CONFIG, trace,
                              record=record)
        self._assert_equal(batch, stream, record)
