"""Tests for the Markov-modulated, Pareto-burst and replay traffic
models: determinism given the seed and port/slot invariants."""

from itertools import islice

import numpy as np
import pytest

from repro.traffic import (
    BernoulliTraffic,
    MarkovModulatedTraffic,
    ParetoBurstTraffic,
    Trace,
    TraceReplayTraffic,
    two_value,
)

N_IN, N_OUT, SLOTS = 4, 3, 40


def _models():
    return [
        MarkovModulatedTraffic(N_IN, N_OUT, loads=(0.2, 1.0, 2.5)),
        ParetoBurstTraffic(N_IN, N_OUT, shape=1.5, p_start=0.2),
        TraceReplayTraffic(
            BernoulliTraffic(N_IN, N_OUT, load=1.2).generate(SLOTS, seed=9),
            repeat=True,
        ),
    ]


@pytest.mark.parametrize("model", _models(), ids=lambda m: m.name)
class TestNewModelContracts:
    def test_deterministic_given_seed(self, model):
        a = model.generate(SLOTS, seed=3)
        b = model.generate(SLOTS, seed=3)
        assert (a.name, a.content_digest()) == (b.name, b.content_digest())

    def test_port_and_slot_invariants(self, model):
        t = model.generate(SLOTS, seed=1)
        assert (t.n_in, t.n_out) == (N_IN, N_OUT)
        assert t.n_slots <= SLOTS
        for p in t.packets:
            assert 0 <= p.src < N_IN
            assert 0 <= p.dst < N_OUT
            assert 0 <= p.arrival < SLOTS
            assert p.value > 0

    def test_pids_are_arrival_ordered(self, model):
        t = model.generate(SLOTS, seed=2)
        pids = [p.pid for p in t.packets]
        assert pids == list(range(len(pids)))
        arrivals = [p.arrival for p in t.packets]
        assert arrivals == sorted(arrivals)


class TestMarkovModulated:
    def test_seed_changes_trace(self):
        m = MarkovModulatedTraffic(4, 4)
        a, b = m.generate(30, seed=0), m.generate(30, seed=1)
        assert (a.name, a.content_digest()) != (b.name, b.content_digest())

    def test_two_state_mean_load_tracks_stationary(self):
        # 50/50 stationary split between rates 0 and 2 -> mean load ~1.
        m = MarkovModulatedTraffic(
            4, 4, loads=(0.0, 2.0),
            transition=[[0.8, 0.2], [0.2, 0.8]],
        )
        t = m.generate(600, seed=7)
        assert t.offered_load() == pytest.approx(1.0, rel=0.2)

    def test_single_state_is_bernoulli_like(self):
        m = MarkovModulatedTraffic(3, 3, loads=(0.5,), transition=[[1.0]])
        t = m.generate(400, seed=1)
        assert t.offered_load() == pytest.approx(0.5, rel=0.2)

    def test_value_model_applies(self):
        m = MarkovModulatedTraffic(3, 3, loads=(1.0,),
                                   value_model=two_value(7.0, 0.5))
        vals = {p.value for p in m.generate(50, seed=0).packets}
        assert vals <= {1.0, 7.0} and len(vals) == 2

    def test_dst_weights_respected(self):
        m = MarkovModulatedTraffic(
            3, 3, loads=(1.0,), transition=[[1.0]],
            dst_weights=[1.0, 0.0, 0.0],
        )
        t = m.generate(40, seed=0)
        assert len(t) > 0
        assert all(p.dst == 0 for p in t.packets)

    def test_stationary_distribution_of_periodic_chain(self):
        # Period-2 chain: plain power iteration oscillates; the lazy
        # iteration must still find pi = (1/2, 1/4, 1/4).
        from repro.traffic.markov import _stationary

        pi = _stationary(np.array([[0.0, 0.5, 0.5],
                                   [1.0, 0.0, 0.0],
                                   [1.0, 0.0, 0.0]]))
        assert pi == pytest.approx([0.5, 0.25, 0.25], abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovModulatedTraffic(2, 2, loads=(-1.0,))
        with pytest.raises(ValueError):
            MarkovModulatedTraffic(2, 2, loads=(1.0, 2.0),
                                   transition=[[1.0, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            MarkovModulatedTraffic(2, 2, loads=(1.0,),
                                   transition=[[0.5, 0.5]])
        with pytest.raises(ValueError):
            MarkovModulatedTraffic(2, 2, dst_weights=[1.0])


class TestParetoBurst:
    def test_bursts_hold_one_destination(self):
        m = ParetoBurstTraffic(1, 4, shape=1.2, p_start=0.3, burst_load=1.0)
        t = m.generate(100, seed=3)
        # Consecutive-slot runs from one input must share a destination.
        by_slot = {}
        for p in t.packets:
            by_slot.setdefault(p.arrival, set()).add(p.dst)
        for slot, dsts in by_slot.items():
            assert len(dsts) == 1
        runs_ok = 0
        slots = sorted(by_slot)
        for a, b in zip(slots, slots[1:]):
            if b == a + 1 and by_slot[a] == by_slot[b]:
                runs_ok += 1
        assert runs_ok > 0  # heavy tail => some multi-slot bursts

    def test_max_burst_caps_tail(self):
        # shape 0.3 draws astronomically long bursts; the cap plus
        # p_start=1 means every input is simply always ON.
        m = ParetoBurstTraffic(2, 2, shape=0.3, p_start=1.0, max_burst=5,
                               burst_load=1.0)
        t = m.generate(50, seed=0)
        assert len(t) == 2 * 50  # one packet per input per slot

    def test_infinite_draws_clamp_to_max_burst(self):
        # shape 1e-300 draws an infinite length every time; each burst
        # is then exactly max_burst slots long, so every run of busy
        # slots the trace does not cut off is a whole number of bursts.
        m = ParetoBurstTraffic(1, 3, shape=1e-300, p_start=0.3,
                               max_burst=7, burst_load=1.0)
        slots = sorted({p.arrival for p in m.generate(200, seed=1).packets})
        runs, start = [], slots[0]
        for a, b in zip(slots, slots[1:] + [None]):
            if b != a + 1:
                runs.append((start, a + 1 - start))
                start = b
        whole = [n for s, n in runs if s + n < 200]
        assert whole and all(n % 7 == 0 for n in whole)

    def test_validation(self):
        for kwargs in ({"shape": 0}, {"p_start": 0}, {"p_start": 1.5},
                       {"burst_load": 0}, {"max_burst": 0}):
            with pytest.raises(ValueError):
                ParetoBurstTraffic(2, 2, **kwargs)


class TestTraceReplay:
    def test_round_trip_from_file(self, tmp_path):
        src = BernoulliTraffic(3, 3, load=1.0,
                               value_model=two_value(5.0, 0.4)
                               ).generate(12, seed=4)
        path = tmp_path / "trace.json"
        src.save(str(path))
        replay = TraceReplayTraffic(str(path))
        out = replay.generate(12, seed=99)
        assert [(p.value, p.arrival, p.src, p.dst) for p in out.packets] == \
               [(p.value, p.arrival, p.src, p.dst) for p in src.packets]

    def test_truncates_without_repeat(self):
        src = BernoulliTraffic(2, 2, load=2.0).generate(10, seed=0)
        out = TraceReplayTraffic(src).generate(4, seed=0)
        assert out.n_slots <= 4
        assert all(p.arrival < 4 for p in out.packets)

    def test_repeat_tiles_recording(self):
        src = BernoulliTraffic(2, 2, load=2.0).generate(5, seed=0)
        out = TraceReplayTraffic(src, repeat=True).generate(15, seed=0)
        assert len(out) == 3 * len(src)

    def test_seed_independent(self):
        src = BernoulliTraffic(2, 2, load=1.0).generate(8, seed=0)
        r = TraceReplayTraffic(src)
        a = [(p.value, p.arrival, p.src, p.dst)
             for p in r.generate(8, seed=0).packets]
        b = [(p.value, p.arrival, p.src, p.dst)
             for p in r.generate(8, seed=123).packets]
        assert a == b

    def test_slot_arrivals_tile_the_recording(self):
        # Replay's draw loop yields the recording's (srcs, dsts, values)
        # columns: recorded values are part of the instance and must
        # survive the streaming path.
        src = BernoulliTraffic(2, 2, load=2.0,
                               value_model=two_value(5.0, 0.5)
                               ).generate(4, seed=1)
        slots = list(islice(
            TraceReplayTraffic(src, repeat=True).slot_arrivals(0),
            2 + src.n_slots))
        direct = ([p.src for p in src.arrivals(1)],
                  [p.dst for p in src.arrivals(1)],
                  [p.value for p in src.arrivals(1)])
        assert direct[0]
        assert tuple(map(list, slots[1])) == direct
        assert tuple(map(list, slots[1 + src.n_slots])) == direct
