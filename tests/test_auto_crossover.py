"""The auto backend's one crossover rule: lanes x ports.

``backend="auto"`` takes the vectorized kernel only when the lockstep
traces of a run times the larger side of its switch reach
``AUTO_CROSSOVER``; below it the reference kernel wins for every paper
policy (``BENCH_engine.json``'s crossover rows, which
``tests/test_package.py`` checks the constant against).  These tests pin
the rule itself and — by poisoning the fast-path loader — prove the fast
kernel is never even imported below it.
"""

from functools import partial

import pytest

from repro.core.cgu import CGUPolicy
from repro.core.cpg import CPGPolicy
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.scheduling.baselines import MaxMatchPolicy
from repro.scheduling.fifo import FifoCIOQPolicy, FifoCrossbarPolicy
from repro.simulation import engine
from repro.simulation.backends import (
    auto_prefers_reference,
    numpy_available,
)
from repro.simulation.engine import (
    run_cioq,
    run_cioq_batch,
    run_crossbar,
    run_crossbar_batch,
)
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.values import uniform_values

#: (label, model, policy factory): the four paper policies and one
#: baseline the fast kernel does not hold.
POLICIES = [
    ("gm", "cioq", GMPolicy),
    ("pg", "cioq", partial(PGPolicy, beta=2.0)),
    ("cgu", "crossbar", CGUPolicy),
    ("cpg", "crossbar", CPGPolicy),
    ("maxmatch", "cioq", MaxMatchPolicy),
]

RUNNERS = {"cioq": (run_cioq, run_cioq_batch),
           "crossbar": (run_crossbar, run_crossbar_batch)}


def _trace(n_in, n_out=None, slots=12, seed=0):
    n_out = n_in if n_out is None else n_out
    return BernoulliTraffic(
        n_in, n_out, load=1.2, value_model=uniform_values(1, 10)
    ).generate(slots, seed=seed)


def _config(n_in, n_out=None):
    n_out = n_in if n_out is None else n_out
    return SwitchConfig(n_in=n_in, n_out=n_out, speedup=1,
                        b_in=2, b_out=2, b_cross=1)


def _run(model, factory, config, traces, backend):
    """One trace through the single-run entry, more through the batch
    entry, like the sweep executor's single and batch tasks."""
    single, batch = RUNNERS[model]
    if len(traces) == 1:
        return [single(factory(), config, traces[0], backend=backend)]
    return batch(factory, config, traces, backend=backend)


def _poisoned():
    raise AssertionError("fast path touched")


#: (n_in, n_out, lanes) on each side of the crossover of 64; the
#: rectangular switches count their larger side.
BELOW = [(2, 2, 1), (8, 8, 1), (32, 32, 1), (4, 4, 15), (8, 8, 7),
         (16, 16, 3), (4, 16, 3), (16, 4, 3)]
AT = [(64, 64, 1), (4, 4, 16), (8, 8, 8), (32, 32, 2), (4, 16, 4),
      (16, 4, 4)]


class TestRule:
    @pytest.mark.parametrize("n_in, n_out, lanes", BELOW)
    def test_below_prefers_reference(self, n_in, n_out, lanes):
        assert auto_prefers_reference(_config(n_in, n_out), lanes)

    @pytest.mark.parametrize("n_in, n_out, lanes", AT)
    def test_at_crossover_tries_fast(self, n_in, n_out, lanes):
        assert not auto_prefers_reference(_config(n_in, n_out), lanes)

    def test_single_run_is_one_lane(self, monkeypatch):
        """A single run counts as one lane: 63 ports stay on the
        reference kernel, 64 reach the loader."""
        monkeypatch.setattr(engine, "load_fastpath", _poisoned)
        run_cioq(GMPolicy(), _config(63), _trace(63, slots=2),
                 backend="auto")
        with pytest.raises(AssertionError, match="fast path touched"):
            run_cioq(GMPolicy(), _config(64), _trace(64, slots=2),
                     backend="auto")


class TestDispatch:
    """Poison the fast-path loader: an auto run below the crossover must
    succeed without ever importing the fast kernel, and one at it must
    reach the loader."""

    @pytest.fixture
    def poisoned_fastpath(self, monkeypatch):
        monkeypatch.setattr(engine, "load_fastpath", _poisoned)

    @pytest.mark.parametrize("n_in, n_out, lanes", BELOW)
    @pytest.mark.parametrize("label, model, factory", POLICIES,
                             ids=[p[0] for p in POLICIES])
    def test_below_never_loads_fastpath(self, poisoned_fastpath, label,
                                        model, factory, n_in, n_out, lanes):
        config = _config(n_in, n_out)
        traces = [_trace(n_in, n_out, slots=6, seed=s) for s in range(lanes)]
        auto = _run(model, factory, config, traces, "auto")
        ref = _run(model, factory, config, traces, "reference")
        assert [r.as_payload() for r in auto] == [
            r.as_payload() for r in ref]

    @pytest.mark.parametrize("n_in, n_out, lanes", AT)
    @pytest.mark.parametrize("label, model, factory", POLICIES,
                             ids=[p[0] for p in POLICIES])
    def test_at_crossover_reaches_fastpath(self, poisoned_fastpath, label,
                                           model, factory, n_in, n_out,
                                           lanes):
        traces = [_trace(n_in, n_out, slots=2, seed=s) for s in range(lanes)]
        with pytest.raises(AssertionError, match="fast path touched"):
            _run(model, factory, _config(n_in, n_out), traces, "auto")

    def test_explicit_fast_bypasses_rule(self, poisoned_fastpath):
        # backend="fast" must honor the explicit request: it reaches
        # the (poisoned) loader even below the crossover.
        with pytest.raises(AssertionError, match="fast path touched"):
            run_cioq(PGPolicy(beta=2.0), _config(2), _trace(2),
                     backend="fast")


class TestFallbackAtCrossover:
    """At the crossover ``auto`` tries the fast kernel, and a run the
    kernel refuses there (a baseline, an event log, the invariant
    checks, a capacity past its queue-length dtype) runs on the
    reference kernel with the reference payloads."""

    @pytest.fixture
    def loads(self, monkeypatch):
        """Counts the fast-path loader's calls, then lets each through."""
        calls = []
        load = engine.load_fastpath

        def counted():
            calls.append(None)
            return load()

        monkeypatch.setattr(engine, "load_fastpath", counted)
        return calls

    @pytest.mark.parametrize("model, cls", [
        ("cioq", MaxMatchPolicy), ("cioq", FifoCIOQPolicy),
        ("crossbar", FifoCrossbarPolicy),
    ], ids=lambda x: getattr(x, "__name__", x))
    def test_baseline_batch(self, loads, model, cls):
        config = _config(4)
        traces = [_trace(4, slots=6, seed=s) for s in range(16)]
        auto = _run(model, cls, config, traces, "auto")
        assert len(loads) == 1
        ref = _run(model, cls, config, traces, "reference")
        assert [r.as_payload() for r in auto] == [
            r.as_payload() for r in ref]

    @pytest.mark.parametrize("option", ["record", "check_invariants"])
    def test_unsupported_option_on_64_ports(self, loads, option):
        config, trace = _config(64), _trace(64, slots=3)
        auto = run_cioq(GMPolicy(), config, trace, backend="auto",
                        **{option: True})
        assert len(loads) == 1
        ref = run_cioq(GMPolicy(), config, trace, **{option: True})
        assert (auto.as_payload(), auto.transmit_log) == (
            ref.as_payload(), ref.transmit_log)

    @pytest.mark.parametrize("model, factory, caps", [
        ("cioq", GMPolicy, {"b_in": 40000}),
        ("crossbar", CGUPolicy, {"b_cross": 40000}),
    ], ids=["cioq-b_in", "crossbar-b_cross"])
    def test_capacity_past_length_dtype(self, loads, model, factory, caps):
        config = SwitchConfig(**{"n_in": 2, "n_out": 2, "b_in": 2,
                                 "b_out": 2, **caps})
        traces = [BernoulliTraffic(2, 2, load=3.0).generate(10, seed=s)
                  for s in range(64)]
        auto = _run(model, factory, config, traces, "auto")
        assert len(loads) == 1
        ref = _run(model, factory, config, traces, "reference")
        assert [r.as_payload() for r in auto] == [
            r.as_payload() for r in ref]


@pytest.mark.skipif(not numpy_available(),
                    reason="numpy required for the fast-kernel identity check")
@pytest.mark.parametrize("n_in, n_out, lanes",
                         [(8, 8, 1), (4, 4, 3), (4, 16, 4), (8, 8, 8)])
@pytest.mark.parametrize("label, model, factory", POLICIES[:4],
                         ids=[p[0] for p in POLICIES[:4]])
def test_auto_equals_fast(label, model, factory, n_in, n_out, lanes):
    """The rule is scheduling only: auto, on whichever kernel it picks,
    gives the fast kernel's payloads bit for bit."""
    config = _config(n_in, n_out)
    traces = [_trace(n_in, n_out, seed=s) for s in range(lanes)]
    auto = _run(model, factory, config, traces, "auto")
    fast = _run(model, factory, config, traces, "fast")
    assert [r.as_payload() for r in auto] == [r.as_payload() for r in fast]
