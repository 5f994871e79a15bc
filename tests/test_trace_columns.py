"""The columnar trace contract.

A :class:`~repro.traffic.trace.Trace` stores five stdlib array columns
and builds :class:`~repro.switch.packet.Packet` objects only when a
consumer asks for :attr:`~repro.traffic.trace.Trace.packets`,
``arrivals()`` or ``arrival_slots()``.  Generated traces and traces
built from packets share that one storage, so both must agree on every
column, the digest, the per-slot packets and the saved bytes; and a
fast-backend run over generated traces must never build a packet.
"""

from array import array

import pytest

from repro.core import CGUPolicy, CPGPolicy, GMPolicy, PGPolicy
from repro.simulation.engine import run_cioq_batch, run_crossbar_batch
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.traffic import BurstyTraffic, Trace
from repro.traffic.values import pareto_values
from test_traffic_digests import CASES, SLOTS, _model


def _slot_rows(trace):
    return [[(p.pid, p.value, p.arrival, p.src, p.dst) for p in slot]
            for slot in trace.arrival_slots()]


@pytest.mark.parametrize("traffic,values,seed", CASES)
def test_generated_equals_packet_built(traffic, values, seed, tmp_path):
    trace = _model(traffic, values).generate(SLOTS, seed=seed)
    rebuilt = Trace(list(trace.packets), trace.n_in, trace.n_out,
                    name=trace.name, n_slots=trace.n_slots)
    assert rebuilt.columns() == trace.columns()
    assert rebuilt.content_digest() == trace.content_digest()
    assert _slot_rows(rebuilt) == _slot_rows(trace)
    trace.save(str(tmp_path / "generated.jsonl"))
    rebuilt.save(str(tmp_path / "rebuilt.jsonl"))
    assert ((tmp_path / "generated.jsonl").read_bytes()
            == (tmp_path / "rebuilt.jsonl").read_bytes())


@pytest.fixture
def packet_inits(monkeypatch):
    """Counts every :class:`Packet` constructed from here on."""
    calls = []
    init = Packet.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Packet, "__init__", counting_init)
    return calls


CONFIG = SwitchConfig.square(16, speedup=2, b_in=3, b_out=3, b_cross=2)


def _traces():
    model = BurstyTraffic(16, 16, burst_load=2.0, value_model=pareto_values())
    return [model.generate(30, seed=seed) for seed in range(3)]


@pytest.mark.parametrize("run,policies", [
    (run_cioq_batch, (GMPolicy, PGPolicy)),
    (run_crossbar_batch, (CGUPolicy, CPGPolicy)),
])
def test_fast_runs_build_no_packet(run, policies, packet_inits):
    traces = _traces()
    assert sum(len(t) for t in traces) > 1000
    for policy in policies:
        results = run(policy, CONFIG, traces, backend="fast")
        assert [r.n_arrived for r in results] == [len(t) for t in traces]
    assert packet_inits == []


def test_summaries_digest_and_save_build_no_packet(packet_inits, tmp_path):
    (trace, *_rest) = _traces()
    assert len(trace) > 0 and trace.total_value > 0
    trace.content_digest()
    trace.save(str(tmp_path / "t.jsonl"))
    assert packet_inits == []
    # The first packet consumer builds them, once.
    assert trace.packets is trace.packets
    assert len(packet_inits) == len(trace)


def _columns(rows):
    pid, value, arrival, src, dst = zip(*rows)
    return (array("q", pid), array("d", value), array("q", arrival),
            array("q", src), array("q", dst))


class TestFromColumns:
    def test_adopts_valid_columns(self):
        cols = _columns([(0, 2.0, 0, 1, 0), (1, 1.0, 0, 0, 1),
                         (2, 5.0, 2, 1, 1)])
        trace = Trace.from_columns(*cols, 2, 2, name="c", n_slots=4)
        assert trace.columns() == cols
        assert (len(trace), trace.n_slots, trace.total_value) == (3, 4, 8.0)
        assert [len(s) for s in trace.arrival_slots()] == [2, 0, 1, 0]
        assert trace.content_digest() == Trace(
            trace.packets, 2, 2, n_slots=4).content_digest()

    @pytest.mark.parametrize("rows,match", [
        ([(0, 1.0, 0, 2, 0)], r"packet 0: src 2 out of range \[0,2\)"),
        ([(0, 1.0, 0, 0, -1)], r"packet 0: dst -1 out of range"),
        ([(0, 1.0, 0, 0, 0), (1, float("nan"), 0, 0, 0)], "finite"),
        ([(0, float("nan"), 0, 0, 0), (1, 1.0, 0, 0, 0)], "finite"),
        ([(0, 1.0, 0, 0, 0), (1, float("inf"), 1, 0, 0)], "finite"),
        ([(0, 0.0, 0, 0, 0)], "positive"),
        ([(0, 1.0, 1, 0, 0), (1, 1.0, 0, 0, 0)], "arrival order"),
        ([(0, 1.0, -1, 0, 0)], "arrival slot must be >= 0"),
        ([(3, 1.0, 0, 0, 0), (3, 1.0, 1, 0, 0)], "duplicate packet id 3"),
        ([(5, 1.0, 0, 0, 0), (4, 1.0, 0, 0, 0)], r"\(arrival, pid\) order"),
    ])
    def test_rejects_what_packets_reject(self, rows, match):
        with pytest.raises(ValueError, match=match):
            Trace.from_columns(*_columns(rows), 2, 2)

    def test_rejects_other_containers(self):
        pid, value, arrival, src, dst = _columns([(0, 1.0, 0, 0, 0)])
        with pytest.raises(TypeError, match="array"):
            Trace.from_columns(pid, array("q", [1]), arrival, src, dst, 1, 1)
        with pytest.raises(TypeError, match="array"):
            Trace.from_columns([0], value, arrival, src, dst, 1, 1)

    def test_pids_need_not_rise_across_slots(self):
        trace = Trace.from_columns(
            *_columns([(7, 1.0, 0, 0, 0), (2, 1.0, 1, 0, 0)]), 1, 1)
        assert [p.pid for p in trace.packets] == [7, 2]
