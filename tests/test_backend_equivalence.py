"""Differential equivalence matrix: ``fast`` backend vs ``reference``.

The vectorized numpy backend (:mod:`repro.simulation.fastpath`) runs
the paper's four policies (GM, PG, CGU, CPG) and is required to be
**bit-identical** to the reference kernel on every observable
:class:`~repro.simulation.results.SimulationResult` field — that
contract is what lets sweep caches ignore the backend and lets ``auto``
switch freely.  Every other policy (the comparison baselines, custom
classes) raises ``BackendUnsupported`` under ``fast`` and runs on the
reference kernel under ``auto``.  This module pins it from four
directions:

* the registry semantics themselves (validation, fallback, errors, the
  fast kernel's policy table);
* a differential matrix over **every builtin scenario** — each
  (scenario, seed, policy) runs through ``fast`` (paper policies) or
  ``auto`` (baselines) and must agree with reference on every payload
  field;
* seeded property-based runs over arbitrary traffic models and policy
  mixes (the ``tests/_strategies.py`` harness), including
  preemption-heavy and drain edge cases;
* seed-ladder batching parity: a batched multi-seed ``fast`` run must
  produce byte-identical ``summary.json`` / ``summary.csv`` artifacts
  to serial per-seed reference replication.

Equality below is exact (``==``), not approximate: the backends execute
the same float operations in the same order by construction, so even
the accumulated float accounting must match bit for bit.
"""

import functools
import json
import random

import pytest

from _strategies import N_CASES, property_seeds, traffic_strategy
from repro.core.cgu import CGUPolicy
from repro.core.cpg import CPGPolicy
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.scenarios import all_scenarios
from repro.scheduling.baselines import (
    CrossbarGreedyWeightedPolicy,
    MaxMatchPolicy,
    MaxWeightMatchPolicy,
    RandomMatchPolicy,
    RoundRobinPolicy,
)
from repro.scheduling.fifo import FifoCIOQPolicy, FifoCrossbarPolicy
from repro.scheduling.matching import MatchingStats
from repro.simulation.backends import (
    BACKENDS,
    BackendUnsupported,
    available_backends,
    numpy_available,
    validate_backend,
)
from repro.simulation.engine import (
    run_cioq,
    run_cioq_batch,
    run_cioq_streaming,
    run_crossbar,
    run_crossbar_batch,
)
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.trace import Trace
from repro.traffic.values import two_value, uniform_values

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="fast backend requires numpy"
)

#: Every observable payload field of a SimulationResult (the logs are
#: covered by test_kernel_equivalence.py; the fast backend rejects
#: record=True, so they cannot diverge here).
PAYLOAD_FIELDS = [
    "policy_name",
    "n_arrival_slots",
    "horizon",
    "n_arrived",
    "value_arrived",
    "n_accepted",
    "value_accepted",
    "n_rejected",
    "value_rejected",
    "n_preempted_voq",
    "value_preempted_voq",
    "n_preempted_cross",
    "value_preempted_cross",
    "n_preempted_out",
    "value_preempted_out",
    "benefit",
    "n_sent",
    "n_residual",
    "value_residual",
    "sent_per_output",
    "value_per_output",
    "occupancy",
]


def in_fast_table(model, policy):
    """True when the fast kernel has a stepper for ``policy``."""
    from repro.simulation.fastpath import SUPPORTED_POLICIES

    return (model, type(policy)) in SUPPORTED_POLICIES


def assert_payloads_identical(ref, fast, label=""):
    """Exact equality on every observable field — ints and floats alike
    (the bit-identical backend contract, stronger than any tolerance)."""
    for name in PAYLOAD_FIELDS:
        rv, fv = getattr(ref, name), getattr(fast, name)
        assert rv == fv, (
            f"fast backend diverges from reference on {name} {label}: "
            f"{rv!r} != {fv!r}"
        )


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_backend_names(self):
        assert BACKENDS == ("reference", "fast", "auto")
        for name in BACKENDS:
            assert validate_backend(name) == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            validate_backend("numba")

    def test_engine_rejects_unknown_backend(self, small_config, unit_trace):
        with pytest.raises(ValueError, match="unknown backend"):
            run_cioq(GMPolicy(), small_config, unit_trace, backend="gpu")

    def test_available_backends_with_numpy(self):
        assert available_backends() == BACKENDS

    @pytest.mark.parametrize("kwargs", [
        {"record": True},
        {"check_invariants": True},
    ])
    def test_fast_rejects_unsupported_features(self, small_config,
                                               unit_trace, kwargs):
        with pytest.raises(BackendUnsupported):
            run_cioq(GMPolicy(), small_config, unit_trace, backend="fast",
                     **kwargs)
        # auto falls back to the reference kernel instead.
        ref = run_cioq(GMPolicy(), small_config, unit_trace, **kwargs)
        auto = run_cioq(GMPolicy(), small_config, unit_trace, backend="auto",
                        **kwargs)
        assert_payloads_identical(ref, auto)

    def test_fast_rejects_stats_collection(self, small_config, unit_trace):
        with pytest.raises(BackendUnsupported, match="MatchingStats"):
            run_cioq(GMPolicy(stats=MatchingStats()), small_config,
                     unit_trace, backend="fast")

    def test_fast_table_holds_only_the_paper_policies(self):
        """The fast kernel implements exactly Theorems 1-4's policies;
        a new entry needs a workload that runs it."""
        from repro.simulation.fastpath import SUPPORTED_POLICIES

        assert set(SUPPORTED_POLICIES) == {
            ("cioq", GMPolicy), ("cioq", PGPolicy),
            ("crossbar", CGUPolicy), ("crossbar", CPGPolicy),
        }

    @pytest.mark.parametrize("model, cls", [
        pytest.param(model, cls, id=cls.__name__) for model, cls in [
            ("cioq", MaxMatchPolicy), ("cioq", MaxWeightMatchPolicy),
            ("cioq", RandomMatchPolicy), ("cioq", RoundRobinPolicy),
            ("cioq", FifoCIOQPolicy),
            ("crossbar", CrossbarGreedyWeightedPolicy),
            ("crossbar", FifoCrossbarPolicy),
        ]
    ])
    def test_fast_rejects_the_baselines(self, model, cls, small_config,
                                        unit_trace):
        """Each baseline raises under ``fast`` and equals reference under
        ``auto``, which runs it on the reference kernel."""
        runner = run_cioq if model == "cioq" else run_crossbar
        with pytest.raises(BackendUnsupported,
                           match=f"no {model} stepper for {cls.__name__}"):
            runner(cls(), small_config, unit_trace, backend="fast")
        ref = runner(cls(), small_config, unit_trace)
        auto = runner(cls(), small_config, unit_trace, backend="auto")
        assert_payloads_identical(ref, auto, label=f"({cls.__name__})")

    def test_fast_rejects_streaming(self, small_config):
        with pytest.raises(BackendUnsupported):
            run_cioq_streaming(GMPolicy(), small_config, lambda t, sw: [], 4,
                               backend="fast")

    def test_streaming_auto_falls_back(self, small_config):
        ref = run_cioq_streaming(GMPolicy(), small_config,
                                 lambda t, sw: [(0, t % 3, 1.0)], 6)
        auto = run_cioq_streaming(GMPolicy(), small_config,
                                  lambda t, sw: [(0, t % 3, 1.0)], 6,
                                  backend="auto")
        assert_payloads_identical(ref, auto)


# ---------------------------------------------------------------------------
# Satellite: differential matrix over every builtin scenario
# ---------------------------------------------------------------------------

def _scenario_cases():
    for spec in all_scenarios():
        yield pytest.param(spec, id=spec.name)


@pytest.mark.parametrize("spec", _scenario_cases())
def test_builtin_scenario_matrix(spec):
    """Every (builtin scenario, seed, policy) point agrees between the
    backends on every payload field: policies in the fast kernel's table
    run with ``backend="fast"``; every other builtin policy must raise
    ``BackendUnsupported`` under ``fast`` and equal reference under
    ``auto``."""
    config = spec.build_config()
    traffic = spec.build_traffic()
    runner = run_cioq if spec.model == "cioq" else run_crossbar
    for seed in spec.seeds[:2]:
        trace = traffic.generate(spec.slots, seed=seed)
        for label, factory in spec.policy_factories():
            ref = runner(factory(), config, trace, trace_occupancy=True)
            backend = "fast"
            if not in_fast_table(spec.model, factory()):
                with pytest.raises(BackendUnsupported):
                    runner(factory(), config, trace, trace_occupancy=True,
                           backend="fast")
                backend = "auto"
            other = runner(factory(), config, trace, trace_occupancy=True,
                           backend=backend)
            assert_payloads_identical(
                ref, other,
                label=f"({spec.name}, seed={seed}, {label}, {backend})"
            )


# ---------------------------------------------------------------------------
# Satellite: property-based backend agreement
# ---------------------------------------------------------------------------

CIOQ_FACTORIES = [
    GMPolicy,
    functools.partial(GMPolicy, rotate=False),
    PGPolicy,
    functools.partial(PGPolicy, beta=1.1),  # near-1 beta: preempt-happy
    MaxMatchPolicy,
    MaxWeightMatchPolicy,
    functools.partial(RandomMatchPolicy, seed=7),
    RoundRobinPolicy,
    FifoCIOQPolicy,
]
CROSSBAR_FACTORIES = [
    CGUPolicy,
    functools.partial(CGUPolicy, rotate=False),
    CPGPolicy,
    functools.partial(CPGPolicy, beta=1.2, alpha=1.05),
    FifoCrossbarPolicy,
]


@pytest.mark.parametrize("seed", property_seeds())
def test_property_backend_agreement(seed):
    """Arbitrary traffic x arbitrary policy x arbitrary config: both
    backends agree exactly on every payload field (``fast`` for the
    paper policies, ``auto`` for the baselines, which it runs on the
    reference kernel)."""
    rng = random.Random(seed)
    for case in range(N_CASES):
        model, n_in, n_out = traffic_strategy(rng)
        config = SwitchConfig(
            n_in=n_in, n_out=n_out, speedup=rng.randint(1, 3),
            b_in=rng.randint(1, 4), b_out=rng.randint(1, 4),
            b_cross=rng.randint(1, 3),
        )
        trace = model.generate(rng.randint(1, 30), seed=rng.randint(0, 10**6))
        occ = rng.random() < 0.5
        mes = rng.choice([None, 0, rng.randint(1, 5)])
        if rng.random() < 0.5:
            factory = rng.choice(CIOQ_FACTORIES)
            runner, switch = run_cioq, "cioq"
        else:
            factory = rng.choice(CROSSBAR_FACTORIES)
            runner, switch = run_crossbar, "crossbar"
        backend = "fast" if in_fast_table(switch, factory()) else "auto"
        ref = runner(factory(), config, trace, max_extra_slots=mes,
                     trace_occupancy=occ)
        other = runner(factory(), config, trace, max_extra_slots=mes,
                       trace_occupancy=occ, backend=backend)
        assert_payloads_identical(
            ref, other, label=f"(case {case}, seed {seed}, {backend})"
        )


def test_preemption_pushout_chain_identical():
    """PG with beta just above 1 on two-value overload traffic forces
    VOQ push-outs *and* output-queue preemptions every few slots — the
    order-sensitive float accounting paths must still match exactly."""
    config = SwitchConfig(n_in=3, n_out=3, speedup=1, b_in=2, b_out=2,
                          b_cross=1)
    tm = BernoulliTraffic(3, 3, load=2.5, value_model=two_value(20.0, 0.5))
    for seed in range(5):
        trace = tm.generate(30, seed=seed)
        ref = run_cioq(PGPolicy(beta=1.01), config, trace)
        fast = run_cioq(PGPolicy(beta=1.01), config, trace, backend="fast")
        assert ref.n_preempted_voq + ref.n_preempted_out > 0
        assert_payloads_identical(ref, fast, label=f"(seed {seed})")


def test_streaming_style_drain_tail_identical():
    """A burst followed by silence must drain identically: the fast
    backend's lane-retirement logic may not terminate a run earlier or
    later than the reference loop (horizon and benefit both observable).
    PG and CPG cover push-out arrival; the FIFO baselines are outside
    the fast kernel's table and drain on the reference kernel under
    ``auto``.
    """
    config = SwitchConfig(n_in=4, n_out=4, speedup=1, b_in=3, b_out=2,
                          b_cross=1)
    # All 16 pairs active in slot 0, then nothing: pure drain behavior.
    from repro.switch.packet import Packet

    packets = [
        Packet(pid, 1.0 + pid % 3, 0, pid // 4, pid % 4)
        for pid in range(16)
    ]
    trace = Trace(packets, 4, 4, name="burst-then-silence")
    for policy_factory, runner, backend in [
        (GMPolicy, run_cioq, "fast"), (PGPolicy, run_cioq, "fast"),
        (FifoCIOQPolicy, run_cioq, "auto"),
        (CGUPolicy, run_crossbar, "fast"), (CPGPolicy, run_crossbar, "fast"),
        (FifoCrossbarPolicy, run_crossbar, "auto"),
    ]:
        ref = runner(policy_factory(), config, trace, trace_occupancy=True)
        if backend == "auto":
            with pytest.raises(BackendUnsupported):
                runner(policy_factory(), config, trace, backend="fast")
        other = runner(policy_factory(), config, trace, trace_occupancy=True,
                       backend=backend)
        assert ref.n_residual == 0
        assert_payloads_identical(
            ref, other, label=f"({policy_factory.__name__}, {backend})")


def test_empty_trace_identical(small_config):
    empty = Trace([], 3, 3)
    ref = run_cioq(GMPolicy(), small_config, empty)
    fast = run_cioq(GMPolicy(), small_config, empty, backend="fast")
    assert fast.n_arrived == 0 and fast.horizon == ref.horizon
    assert_payloads_identical(ref, fast)


# ---------------------------------------------------------------------------
# Satellite: seed-ladder batching parity
# ---------------------------------------------------------------------------

def test_batch_lockstep_matches_serial_runs():
    """A batched multi-seed fast run equals per-trace serial reference
    runs element by element — including traces of *different lengths*
    in one batch (lanes retire at different times)."""
    config = SwitchConfig(n_in=4, n_out=4, speedup=2, b_in=3, b_out=3,
                          b_cross=2)
    tm = BernoulliTraffic(4, 4, load=1.4, value_model=uniform_values(1, 9))
    traces = [tm.generate(10 + 7 * k, seed=k) for k in range(5)]
    serial = [run_cioq(PGPolicy(), config, tr, trace_occupancy=True)
              for tr in traces]
    batched = run_cioq_batch(PGPolicy, config, traces, trace_occupancy=True,
                             backend="fast")
    assert len(batched) == len(serial)
    for k, (ref, fast) in enumerate(zip(serial, batched)):
        assert_payloads_identical(ref, fast, label=f"(lane {k})")

    xserial = [run_crossbar(CPGPolicy(), config, tr) for tr in traces]
    xbatched = run_crossbar_batch(CPGPolicy, config, traces, backend="fast")
    for k, (ref, fast) in enumerate(zip(xserial, xbatched)):
        assert_payloads_identical(ref, fast, label=f"(xbar lane {k})")


def test_replicated_artifacts_byte_identical(tmp_path):
    """The full replication pipeline — batched fast ladder vs serial
    reference — writes byte-identical summary.json / summary.csv (and
    result.json/result.csv), the artifact-level form of the contract."""
    from repro.scenarios.spec import ScenarioSpec
    from repro.stats import replicate_scenario, write_replicated_artifacts

    spec = ScenarioSpec(
        name="backend-parity",
        description="seed-ladder parity fixture",
        model="cioq",
        switch={"n_in": 3, "n_out": 3, "speedup": 2, "b_in": 2, "b_out": 2},
        traffic="bernoulli",
        traffic_params={"load": 1.3},
        values="uniform",
        value_params={"lo": 1.0, "hi": 9.0},
        policies=({"name": "gm"}, {"name": "pg"}),
        slots=12,
        seeds=(0,),
        include_opt=False,
        metrics=("benefit", "n_sent"),
        replicates={"n": 6, "base_seed": 3, "bootstrap": 64},
    )
    out = {}
    for backend in ("reference", "fast"):
        rrun = replicate_scenario(spec, backend=backend)
        target = tmp_path / backend
        paths = write_replicated_artifacts(rrun, str(target))
        out[backend] = {
            p.rsplit("/", 1)[-1]: open(p, "rb").read() for p in paths
        }
    assert set(out["reference"]) == set(out["fast"])
    for name, blob in out["reference"].items():
        assert out["fast"][name] == blob, (
            f"artifact {name} differs between backends"
        )
    # Sanity: the summary actually carries per-policy rows.
    summary = json.loads(out["fast"]["summary.json"])
    assert summary["seeds_used"] == [3, 4, 5, 6, 7, 8]
    assert {r["policy"] for r in summary["summary"]} == {"gm", "pg"}


# ---------------------------------------------------------------------------
# Satellite: metrics recorders never perturb payloads (PR 9)
# ---------------------------------------------------------------------------

class TestMetricsNeutrality:
    """The observability layer rides along the backend contract: running
    with no recorder, with :data:`NULL_METRICS`, and with an active
    :class:`InMemoryRecorder` must all produce exact-equal payloads on
    both backends — and the recorder snapshots themselves must be
    byte-identical between the backends."""

    def _modes(self):
        from repro.obs import NULL_METRICS, InMemoryRecorder

        return [
            ("none", lambda: None),
            ("null", lambda: NULL_METRICS),
            ("active", lambda: InMemoryRecorder(every_k=1)),
            ("sampled", lambda: InMemoryRecorder(every_k=3)),
        ]

    @pytest.mark.parametrize("model", ["cioq", "crossbar"])
    def test_recorder_modes_identical_payloads(self, model):
        config = SwitchConfig.square(4, speedup=2, b_in=3, b_out=3,
                                     b_cross=1)
        tm = BernoulliTraffic(4, 4, load=1.4,
                              value_model=uniform_values(1, 9))
        traces = [tm.generate(15, seed=s) for s in range(3)]
        if model == "cioq":
            serial, batched, factory = run_cioq, run_cioq_batch, GMPolicy
        else:
            serial, batched, factory = (run_crossbar, run_crossbar_batch,
                                        CGUPolicy)
        base = [serial(factory(), config, tr) for tr in traces]
        for mode, make in self._modes():
            ref = [serial(factory(), config, tr, metrics=make())
                   for tr in traces]
            fast = batched(factory, config, traces, backend="fast",
                           metrics=make())
            for k, (b, r, f) in enumerate(zip(base, ref, fast)):
                assert_payloads_identical(
                    b, r, label=f"(metrics={mode}, ref lane {k})")
                assert_payloads_identical(
                    b, f, label=f"(metrics={mode}, fast lane {k})")

    @pytest.mark.parametrize("every_k", [1, 4])
    def test_recorder_snapshots_backend_identical(self, every_k):
        """One shared recorder across a seed ladder: a serial reference
        batch and one lockstep fast batch must leave the recorder in a
        byte-identical state (counters, gauges, histograms, series)."""
        import json as _json

        from repro.obs import InMemoryRecorder

        config = SwitchConfig.square(4, speedup=2, b_in=3, b_out=3,
                                     b_cross=1)
        tm = BernoulliTraffic(4, 4, load=1.4,
                              value_model=uniform_values(1, 9))
        traces = [tm.generate(10 + 4 * k, seed=k) for k in range(3)]
        ref_rec = InMemoryRecorder(every_k=every_k)
        run_cioq_batch(GMPolicy, config, traces, backend="reference",
                       metrics=ref_rec)
        fast_rec = InMemoryRecorder(every_k=every_k)
        run_cioq_batch(GMPolicy, config, traces, backend="fast",
                       metrics=fast_rec)
        ref_snap = ref_rec.snapshot()
        fast_snap = fast_rec.snapshot()
        assert _json.dumps(ref_snap, sort_keys=True) == _json.dumps(
            fast_snap, sort_keys=True)


def test_executor_cache_is_backend_agnostic(tmp_path):
    """Payloads cached by a fast-backend executor are served verbatim to
    a reference executor (and vice versa): the cache key deliberately
    excludes the backend because the contract makes payloads
    interchangeable."""
    from repro.parallel import SweepExecutor, SweepPoint

    config = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2)
    tm = BernoulliTraffic(3, 3, load=1.2, value_model=uniform_values(1, 5))
    points = [
        SweepPoint(model="cioq", config=config, trace=tm.generate(8, seed=s),
                   policy_factory=GMPolicy, seed=s)
        for s in range(4)
    ]
    cache = str(tmp_path / "cache")
    fast_ex = SweepExecutor(cache_dir=cache, backend="fast")
    fast_payloads = fast_ex.run(points)
    assert fast_ex.cache_misses == 4
    ref_ex = SweepExecutor(cache_dir=cache, backend="reference")
    ref_payloads = ref_ex.run(points)
    assert ref_ex.cache_hits == 4 and ref_ex.cache_misses == 0
    assert ref_payloads == fast_payloads
    # And a cold reference run agrees payload-for-payload.
    cold = SweepExecutor(backend="reference").run(points)
    assert cold == fast_payloads
