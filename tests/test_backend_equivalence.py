"""Differential equivalence matrix: the fast kernel vs the reference one.

The vectorized numpy kernel (:mod:`repro.simulation.fastpath`) runs
the paper's four policies (GM, PG, CGU, CPG) and is required to be
**bit-identical** to the reference kernel on every observable
:class:`~repro.simulation.results.SimulationResult` field — that
contract is what lets sweep caches ignore the kernel and lets the
engine pick one freely.  Every other policy (the comparison baselines,
custom classes) raises ``BackendUnsupported`` on the fast kernel, and
the engine runs it on the reference kernel.  Each test pins a kernel by
calling it directly (``tests/_kernels.py``).  This module pins the
contract from four directions:

* the fast kernel's refusals, the engine's fallback on them, and the
  fast kernel's policy table;
* a differential matrix over **every builtin scenario** — each
  (scenario, seed, policy) runs on the fast kernel (paper policies) or
  through the engine (baselines) and must agree with the reference
  kernel on every payload field;
* seeded property-based runs over arbitrary traffic models and policy
  mixes (the ``tests/_strategies.py`` harness), including
  preemption-heavy and drain edge cases;
* seed-ladder batching parity: a batched multi-seed fast run must
  produce byte-identical ``summary.json`` / ``summary.csv`` artifacts
  to serial per-seed reference replication.

Equality below is exact (``==``), not approximate: the kernels execute
the same float operations in the same order by construction, so even
the accumulated float accounting must match bit for bit.
"""

import functools
import json
import random

import pytest

from _kernels import (
    fast_batch,
    fast_run,
    pin_kernel,
    reference_batch,
    reference_run,
)
from _strategies import N_CASES, property_seeds, traffic_strategy
from repro.core.cgu import CGUPolicy
from repro.core.cpg import CPGPolicy
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.obs import InMemoryRecorder
from repro.scenarios import all_scenarios
from repro.scheduling.baselines import (
    CrossbarGreedyWeightedPolicy,
    MaxMatchPolicy,
    MaxWeightMatchPolicy,
    RandomMatchPolicy,
    RoundRobinPolicy,
)
from repro.scheduling.fifo import FifoCIOQPolicy, FifoCrossbarPolicy
from repro.scheduling.matching import greedy_maximal_matching_weighted
from repro.simulation.backends import BackendUnsupported, numpy_available
from repro.simulation.engine import (
    run_cioq,
    run_cioq_batch,
    run_crossbar,
    run_crossbar_batch,
)
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.bursty import BurstyTraffic
from repro.traffic.trace import Trace
from repro.traffic.values import (
    geometric_class_values,
    pareto_values,
    two_value,
    uniform_values,
    unit_values,
)

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the fast kernel requires numpy"
)

RUNNERS = {"cioq": run_cioq, "crossbar": run_crossbar}

#: Every observable payload field of a SimulationResult (the logs are
#: covered by test_kernel_equivalence.py; the fast kernel rejects
#: record=True, so they cannot diverge here).  Per-slot occupancy is an
#: every-slot recorder's series, compared by :func:`assert_series_identical`.
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
]


def in_fast_table(model, policy):
    """True when the fast kernel has a stepper for ``policy``."""
    from repro.simulation.fastpath import SUPPORTED_POLICIES

    return (model, type(policy)) in SUPPORTED_POLICIES


def assert_payloads_identical(ref, fast, label=""):
    """Exact equality on every observable field — ints and floats alike
    (the bit-identical kernel contract, stronger than any tolerance)."""
    for name in PAYLOAD_FIELDS:
        rv, fv = getattr(ref, name), getattr(fast, name)
        assert rv == fv, (
            f"fast kernel diverges from reference on {name} {label}: "
            f"{rv!r} != {fv!r}"
        )


def lane_series(rec, lane=0):
    """``rec``'s per-slot samples of ``lane``, without the lane column."""
    return [row[:1] + row[2:] for row in rec.series if row[1] == lane]


def assert_series_identical(ref_rec, rec, lane=0, label=""):
    """A reference run's every-slot series (lane 0 of ``ref_rec``) equals
    lane ``lane`` of ``rec``'s: occupancy, matching size and the
    cumulative counters, slot by slot."""
    want = lane_series(ref_rec)
    assert want, f"empty reference series {label}"
    assert lane_series(rec, lane) == want, (
        f"per-slot series diverges from reference {label}")


def engine_run(model, policy, config, trace, **options):
    """``trace`` through the engine, which picks the kernel."""
    return RUNNERS[model](policy, config, trace, **options)


# ---------------------------------------------------------------------------
# Refusals and the fallback
# ---------------------------------------------------------------------------

class TestRefusals:
    @pytest.mark.parametrize("kwargs", [
        {"record": True},
        {"check_invariants": True},
    ])
    def test_fast_rejects_unsupported_features(self, small_config,
                                               unit_trace, kwargs):
        with pytest.raises(BackendUnsupported):
            fast_run("cioq", GMPolicy(), small_config, unit_trace, **kwargs)
        # The engine runs it on the reference kernel instead.
        ref = reference_run("cioq", GMPolicy(), small_config, unit_trace,
                            **kwargs)
        auto = run_cioq(GMPolicy(), small_config, unit_trace, **kwargs)
        assert_payloads_identical(ref, auto)

    @pytest.mark.parametrize("model, policy, caps", [
        ("cioq", GMPolicy, {"b_in": 40000}),
        ("crossbar", CGUPolicy, {"b_cross": 40000}),
    ])
    def test_fast_rejects_capacity_beyond_its_length_dtype(self, model,
                                                           policy, caps):
        """The fast kernel counts queue lengths in int16: a larger
        capacity raises on the fast kernel, and the engine runs it on
        the reference kernel (it used to corrupt the queues and trip the
        conservation check)."""
        config = SwitchConfig(**{"n_in": 2, "n_out": 2, "b_in": 2,
                                 "b_out": 2, **caps})
        trace = BernoulliTraffic(2, 2, load=3.0).generate(50, seed=0)
        with pytest.raises(BackendUnsupported, match="capacity 40000"):
            fast_run(model, policy(), config, trace)
        ref = reference_run(model, policy(), config, trace)
        auto = RUNNERS[model](policy(), config, trace)
        assert_payloads_identical(ref, auto)

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
        """Each baseline raises on the fast kernel, and the engine runs
        it on the reference kernel."""
        with pytest.raises(BackendUnsupported,
                           match=f"no {model} stepper for {cls.__name__}"):
            fast_run(model, cls(), small_config, unit_trace)
        ref = reference_run(model, cls(), small_config, unit_trace)
        auto = RUNNERS[model](cls(), small_config, unit_trace)
        assert_payloads_identical(ref, auto, label=f"({cls.__name__})")

    def test_fast_rejects_timed_recorder(self, small_config, unit_trace):
        """The fast kernel does not time its phases: a timed recorder
        raises before the recorder is touched."""
        rec = InMemoryRecorder(every_k=1, timed=True)
        with pytest.raises(BackendUnsupported, match="timed recorder"):
            fast_run("cioq", GMPolicy(), small_config, unit_trace,
                     metrics=rec)
        with pytest.raises(BackendUnsupported, match="timed recorder"):
            fast_batch("crossbar", CGUPolicy, small_config, [unit_trace],
                       metrics=rec)
        assert (rec.counters, rec.series, rec.times) == ({}, [], {})

    @pytest.mark.parametrize("model", ["cioq", "crossbar"])
    def test_auto_falls_back_on_timed_recorder(self, model):
        """At the crossover (16 lanes x 4 ports) the engine tries the
        fast kernel, which refuses a timed recorder; it then runs the
        batch on the reference kernel, lane by lane, whose payloads,
        counters and series it returns, and records all four phase
        wall-times."""
        from repro.simulation.backends import auto_prefers_reference

        config = SwitchConfig.square(4, speedup=2, b_in=2, b_out=2,
                                     b_cross=1)
        tm = BernoulliTraffic(4, 4, load=1.4, value_model=uniform_values(1, 9))
        traces = [tm.generate(12, seed=s) for s in range(16)]
        assert not auto_prefers_reference(config, len(traces))
        batched, factory = ((run_cioq_batch, PGPolicy) if model == "cioq"
                            else (run_crossbar_batch, CPGPolicy))
        timed = InMemoryRecorder(every_k=1, timed=True)
        auto = batched(factory, config, traces, metrics=timed)
        untimed = InMemoryRecorder(every_k=1)
        ref = reference_batch(model, factory, config, traces,
                              metrics=untimed)
        for lane, (r, a) in enumerate(zip(ref, auto)):
            assert_payloads_identical(r, a, label=f"(lane {lane})")
        assert timed.snapshot() == untimed.snapshot()
        assert {row[1] for row in timed.series} == set(range(16))
        assert sorted(timed.walltimes()) == [
            "phase_arrival_seconds", "phase_schedule_seconds",
            "phase_transmit_seconds", "run_seconds"]
        assert all(v >= 0.0 for v in timed.walltimes().values())


# ---------------------------------------------------------------------------
# Satellite: differential matrix over every builtin scenario
# ---------------------------------------------------------------------------

def _scenario_cases():
    for spec in all_scenarios():
        yield pytest.param(spec, id=spec.name)


@pytest.mark.parametrize("spec", _scenario_cases())
def test_builtin_scenario_matrix(spec):
    """Every (builtin scenario, seed, policy) point agrees between the
    kernels on every payload field: policies in the fast kernel's table
    run on the fast kernel; every other builtin policy must raise
    ``BackendUnsupported`` there and equal the reference kernel through
    the engine."""
    config = spec.build_config()
    traffic = spec.build_traffic()
    model = spec.model
    for seed in spec.seeds[:2]:
        trace = traffic.generate(spec.slots, seed=seed)
        for label, factory in spec.policy_factories():
            ref_rec = InMemoryRecorder(every_k=1)
            ref = reference_run(model, factory(), config, trace,
                                metrics=ref_rec)
            rec = InMemoryRecorder(every_k=1)
            if in_fast_table(model, factory()):
                kernel = "fast"
                other = fast_run(model, factory(), config, trace,
                                 metrics=rec)
            else:
                with pytest.raises(BackendUnsupported):
                    fast_run(model, factory(), config, trace)
                kernel = "engine"
                other = RUNNERS[model](factory(), config, trace, metrics=rec)
            case = f"({spec.name}, seed={seed}, {label}, {kernel})"
            assert_payloads_identical(ref, other, label=case)
            assert_series_identical(ref_rec, rec, label=case)


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
    kernels agree exactly on every payload field (the fast kernel for
    the paper policies, the engine for the baselines, which it runs on
    the reference kernel)."""
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
            factory, switch = rng.choice(CIOQ_FACTORIES), "cioq"
        else:
            factory, switch = rng.choice(CROSSBAR_FACTORIES), "crossbar"
        fast = in_fast_table(switch, factory())
        runner = fast_run if fast else engine_run
        ref_rec, rec = ((InMemoryRecorder(every_k=1),
                         InMemoryRecorder(every_k=1)) if occ else (None, None))
        ref = reference_run(switch, factory(), config, trace,
                            max_extra_slots=mes, metrics=ref_rec)
        other = runner(switch, factory(), config, trace,
                       max_extra_slots=mes, metrics=rec)
        label = f"(case {case}, seed {seed}, {runner.__name__})"
        assert_payloads_identical(ref, other, label=label)
        if occ:
            assert_series_identical(ref_rec, rec, label=label)


def test_preemption_pushout_chain_identical():
    """PG with beta just above 1 on two-value overload traffic forces
    VOQ push-outs *and* output-queue preemptions every few slots — the
    order-sensitive float accounting paths must still match exactly."""
    config = SwitchConfig(n_in=3, n_out=3, speedup=1, b_in=2, b_out=2,
                          b_cross=1)
    tm = BernoulliTraffic(3, 3, load=2.5, value_model=two_value(20.0, 0.5))
    for seed in range(5):
        trace = tm.generate(30, seed=seed)
        ref = reference_run("cioq", PGPolicy(beta=1.01), config, trace)
        fast = fast_run("cioq", PGPolicy(beta=1.01), config, trace)
        assert ref.n_preempted_voq + ref.n_preempted_out > 0
        assert_payloads_identical(ref, fast, label=f"(seed {seed})")


def test_streaming_style_drain_tail_identical():
    """A burst followed by silence must drain identically: the fast
    kernel's lane-retirement logic may not terminate a run earlier or
    later than the reference loop (horizon and benefit both observable).
    PG and CPG cover push-out arrival; the FIFO baselines are outside
    the fast kernel's table, and the engine drains them on the
    reference kernel.
    """
    config = SwitchConfig(n_in=4, n_out=4, speedup=1, b_in=3, b_out=2,
                          b_cross=1)
    # All 16 pairs active in slot 0, then nothing: pure drain behavior.
    packets = [
        Packet(pid, 1.0 + pid % 3, 0, pid // 4, pid % 4)
        for pid in range(16)
    ]
    trace = Trace(packets, 4, 4, name="burst-then-silence")
    for policy_factory, model, runner in [
        (GMPolicy, "cioq", fast_run), (PGPolicy, "cioq", fast_run),
        (FifoCIOQPolicy, "cioq", engine_run),
        (CGUPolicy, "crossbar", fast_run), (CPGPolicy, "crossbar", fast_run),
        (FifoCrossbarPolicy, "crossbar", engine_run),
    ]:
        ref_rec, rec = InMemoryRecorder(every_k=1), InMemoryRecorder(every_k=1)
        ref = reference_run(model, policy_factory(), config, trace,
                            metrics=ref_rec)
        if runner is engine_run:
            with pytest.raises(BackendUnsupported):
                fast_run(model, policy_factory(), config, trace)
        other = runner(model, policy_factory(), config, trace, metrics=rec)
        assert ref.n_residual == 0
        label = f"({policy_factory.__name__}, {runner.__name__})"
        assert_payloads_identical(ref, other, label=label)
        assert_series_identical(ref_rec, rec, label=label)


def test_empty_trace_identical(small_config):
    empty = Trace([], 3, 3)
    ref = reference_run("cioq", GMPolicy(), small_config, empty)
    fast = fast_run("cioq", GMPolicy(), small_config, empty)
    assert fast.n_arrived == 0 and fast.horizon == ref.horizon
    assert_payloads_identical(ref, fast)


# ---------------------------------------------------------------------------
# Batched, tie-heavy property: lockstep lanes against serial reference runs
# ---------------------------------------------------------------------------

#: The paper's policies at thresholds from preempt-happy to the analysis
#: optima (PG's default is beta*; CPG's default is its optimal pair).
BATCH_POLICIES = [
    ("cioq", GMPolicy),
    ("cioq", functools.partial(PGPolicy, beta=1.0)),
    ("cioq", functools.partial(PGPolicy, beta=1.1)),
    ("cioq", PGPolicy),
    ("crossbar", CGUPolicy),
    ("crossbar", functools.partial(CPGPolicy, beta=1.0, alpha=1.0)),
    ("crossbar", functools.partial(CPGPolicy, beta=1.2, alpha=1.05)),
    ("crossbar", CPGPolicy),
]

#: Cases per seed: enough that a mutant ordering PG's preemption
#: accounting by matching round instead of by value shows up.
BATCH_CASES = 120


def _tie_heavy_values(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return unit_values()
    if kind == 1:
        return two_value(rng.choice([2.0, 5.0, 20.0]), rng.uniform(0.1, 0.9))
    if kind == 2:
        return geometric_class_values(rng.randint(2, 4),
                                      rng.choice([2.0, 4.0]))
    return pareto_values(rng.uniform(1.1, 3.0))


@pytest.mark.parametrize("seed", property_seeds())
def test_property_batched_backend_agreement(seed):
    """A lockstep fast batch of 1-5 lanes of different lengths
    equals serial reference runs on every payload field, over small
    switches, discrete (tie-heavy) or heavy-tailed values and every
    paper policy; equal values exercise every tie-break of the fast
    kernel's matchings and best-head scans."""
    rng = random.Random(seed)
    for case in range(BATCH_CASES):
        n_in, n_out = rng.randint(1, 9), rng.randint(1, 9)
        config = SwitchConfig(
            n_in=n_in, n_out=n_out, speedup=rng.randint(1, 3),
            b_in=rng.randint(1, 4), b_out=rng.randint(1, 4),
            b_cross=rng.randint(1, 3),
        )
        values = _tie_heavy_values(rng)
        if rng.random() < 0.5:
            model = BernoulliTraffic(n_in, n_out, load=rng.uniform(0.5, 3.0),
                                     value_model=values)
        else:
            model = BurstyTraffic(
                n_in, n_out, p_on=rng.uniform(0.1, 1.0),
                p_off=rng.uniform(0.1, 1.0),
                burst_load=rng.uniform(0.5, 3.0), value_model=values)
        lengths = rng.sample(range(1, 31), rng.randint(1, 5))
        traces = [model.generate(n, seed=rng.randint(0, 10**6))
                  for n in lengths]
        occ = rng.random() < 0.5
        switch, factory = rng.choice(BATCH_POLICIES)
        ref_recs = [InMemoryRecorder(every_k=1) if occ else None
                    for _ in traces]
        rec = InMemoryRecorder(every_k=1) if occ else None
        refs = [reference_run(switch, factory(), config, tr, metrics=ref_rec)
                for tr, ref_rec in zip(traces, ref_recs)]
        fasts = fast_batch(switch, factory, config, traces, metrics=rec)
        assert len(fasts) == len(refs)
        for lane, (ref, fast) in enumerate(zip(refs, fasts)):
            label = f"(case {case}, seed {seed}, lane {lane})"
            assert_payloads_identical(ref, fast, label=label)
            if occ:
                assert_series_identical(ref_recs[lane], rec, lane, label)


# ---------------------------------------------------------------------------
# PG's matching rounds against the sequential greedy oracle
# ---------------------------------------------------------------------------

def _lane_edges(lanes, n_in, n_out):
    """``lanes`` lists each lane's ``{(i, j): value}``; returns
    :func:`greedy_matching`'s arguments (edges lane-major and
    cell-ascending, as PG builds them) and the oracle's edge list, whose
    ``(u, v)`` tie order is the same ``(lane, i, j)`` order.  Each
    edge's integer key orders by value descending, then by edge index
    ascending, as PG's keys do: the value's class among the distinct
    values, times the edge count, minus the index."""
    import numpy as np

    flat, val, oracle = [], [], []
    for s, edges in enumerate(lanes):
        for (i, j), w in sorted(edges.items()):
            flat.append((s * n_in + i) * n_out + j)
            val.append(w)
            oracle.append((s * n_in + i, s * n_out + j, w))
    classes = {w: c for c, w in enumerate(sorted(set(val)), start=1)}
    key = np.array([classes[w] * len(val) - k for k, w in enumerate(val)],
                   dtype=np.int64)
    flat = np.array(flat, dtype=np.int64)
    pin = flat // n_out
    pout = flat // (n_in * n_out) * n_out + flat % n_out
    args = (key, pin, pout, len(lanes) * n_in, len(lanes) * n_out)
    return args, oracle


def _check_against_oracle(lanes, n_in, n_out):
    from repro.simulation.fastpath import greedy_matching

    args, oracle = _lane_edges(lanes, n_in, n_out)
    _key, pin, pout = args[:3]
    got = greedy_matching(*args)
    assert len(set(got.tolist())) == len(got)
    want = {(u, v) for u, v, _w in greedy_maximal_matching_weighted(oracle)}
    assert set(zip(pin[got].tolist(), pout[got].tolist())) == want


def _staircase(n):
    """The 2n-1 edges (0,0), (1,0), (1,1), (2,1), ... of a path whose
    values rise along it: only the last edge left ranks first at both of
    its ports, so every round matches exactly one edge."""
    edges = {}
    for k in range(2 * n - 1):
        i, j = (k + 1) // 2, k // 2
        edges[(i, j)] = float(k + 1)
    return edges


@pytest.mark.parametrize("rounds", [0, 1, 3, 64])
def test_greedy_matching_equals_sequential_greedy(rounds, monkeypatch):
    """Locally-dominant rounds plus the walk select exactly the greedy
    matching of the reference scan, for any round count (0 is the walk
    alone, 64 the rounds alone), over many-lane edge sets with many
    equal weights."""
    from repro.simulation import fastpath

    monkeypatch.setattr(fastpath, "_PG_ROUNDS", rounds)
    rng = random.Random(f"rounds-{rounds}")
    for _ in range(300):
        n_in, n_out = rng.randint(1, 8), rng.randint(1, 8)
        weights = rng.choice([[1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 5.0],
                              [rng.uniform(1, 9) for _ in range(64)]])
        density = rng.random()
        lanes = [
            {(i, j): rng.choice(weights)
             for i in range(n_in) for j in range(n_out)
             if rng.random() < density}
            for _ in range(rng.randint(1, 4))
        ]
        _check_against_oracle(lanes, n_in, n_out)


@pytest.mark.parametrize("n", [5, 16, 64])
def test_greedy_matching_staircase_drives_the_walk(n):
    """A staircase needs n rounds, more than the kernel runs, so the
    walk finishes it; two lanes check the walk's ports stay per lane."""
    from repro.simulation import fastpath

    assert n > fastpath._PG_ROUNDS
    _check_against_oracle([_staircase(n)], n, n)
    _check_against_oracle([_staircase(n), _staircase(n)], n, n)


def test_staircase_trace_identical():
    """End to end, PG on a switch whose VOQ heads form a staircase every
    slot: the fast kernel (rounds, then the walk) equals reference,
    output preemptions included."""
    n = 12
    packets = []
    for t in range(20):
        for (i, j), w in _staircase(n).items():
            packets.append(Packet(len(packets), w + t % 3, t, i, j))
    trace = Trace(packets, n, n, name="staircase")
    config = SwitchConfig.square(n, speedup=2, b_in=2, b_out=1)
    for beta in (1.0, 1.5):
        ref = reference_run("cioq", PGPolicy(beta=beta), config, trace)
        fast = fast_run("cioq", PGPolicy(beta=beta), config, trace)
        assert ref.n_preempted_out > 0
        assert_payloads_identical(ref, fast, label=f"(beta {beta})")


# ---------------------------------------------------------------------------
# The rank set-up: continuous and tie-heavy values, and its dtype limit
# ---------------------------------------------------------------------------

#: Every stepper, with PG's and CPG's thresholds at 1, at 2 (which
#: two-value and class values meet with equality) and at their defaults.
RANK_CASES = [
    ("cioq", GMPolicy),
    ("cioq", PGPolicy),
    ("cioq", functools.partial(PGPolicy, beta=1.0)),
    ("cioq", functools.partial(PGPolicy, beta=2.0)),
    ("crossbar", CGUPolicy),
    ("crossbar", CPGPolicy),
    ("crossbar", functools.partial(CPGPolicy, beta=1.0, alpha=1.0)),
    ("crossbar", functools.partial(CPGPolicy, beta=2.0, alpha=2.0)),
]


def _rank_batch(values, seeds):
    """One trace per seed of an 8x8 switch under bursty overload."""
    tm = BurstyTraffic(8, 8, p_on=0.5, p_off=0.3, burst_load=2.5,
                       value_model=values)
    return [tm.generate(25, seed=s) for s in seeds]


def _check_rank_batch(traces):
    """Every :data:`RANK_CASES` policy over ``traces`` as one lockstep
    fast batch equals serial reference runs; returns the preemptions
    per site (VOQ, crosspoint, output), summed over the runs."""
    config = SwitchConfig.square(8, speedup=2, b_in=2, b_out=2, b_cross=1)
    preempted = [0, 0, 0]
    for model, factory in RANK_CASES:
        refs = reference_batch(model, factory, config, traces)
        fasts = fast_batch(model, factory, config, traces)
        for lane, (ref, fast) in enumerate(zip(refs, fasts)):
            assert_payloads_identical(
                ref, fast, label=f"({ref.policy_name}, lane {lane})")
        for ref in refs:
            preempted[0] += ref.n_preempted_voq
            preempted[1] += ref.n_preempted_cross
            preempted[2] += ref.n_preempted_out
    return preempted


def test_rank_setup_continuous_values():
    """No two values of the batch tie, so one unstable sort of the
    values ranks it; every stepper then matches the reference, with
    preemptions at all three sites."""
    traces = _rank_batch(uniform_values(1, 100), range(8))
    values = [v for tr in traces for v in tr.columns()[1]]
    assert len(set(values)) == len(values)
    assert min(_check_rank_batch(traces)) > 0


@pytest.mark.parametrize("values", [
    unit_values(), two_value(alpha=2.0, p_high=0.5),
    geometric_class_values(n_classes=4, base=2.0),
], ids=["unit", "two-value", "classes"])
def test_rank_setup_tied_values(values):
    """Values tie within every lane and across lanes, so the ranks take
    the pid tie-break; seed 0 runs in two lanes, whose packets then
    share every (value, pid) pair.  Every stepper matches the
    reference, and where values differ, PG and CPG preempt at all
    three sites."""
    traces = _rank_batch(values, [0, 1, 2, 0, 3, 4, 5, 6])
    for tr in traces:
        lane = list(tr.columns()[1])
        assert len(set(lane)) < len(lane)
    preempted = _check_rank_batch(traces)
    assert min(preempted) > 0 or values.name == "unit"


class TestRankLimit:
    """The fast kernel numbers a batch's packets in int32: a larger
    batch raises ``BackendUnsupported`` there, and the engine runs it on
    the reference kernel, checked without 2**31 packets."""

    def test_int32_limit(self):
        class Huge(Trace):
            """A small trace that reports 2**31 packets."""

            def __len__(self):
                return 2 ** 31

        small = BernoulliTraffic(2, 2, load=1.0).generate(5, seed=0)
        huge = Huge.from_columns(*small.columns(), 2, 2)
        with pytest.raises(BackendUnsupported,
                           match="cannot number the batch's 2147483648"):
            fast_run("cioq", GMPolicy(), SwitchConfig.square(2), huge)

    @pytest.mark.parametrize("model, factory", [
        ("cioq", PGPolicy), ("crossbar", CPGPolicy),
    ])
    def test_auto_falls_back(self, model, factory, monkeypatch):
        """With int8 ranks, a 64 lanes x ports batch of more than 127
        packets is past the limit."""
        import numpy as np

        from repro.simulation import fastpath

        monkeypatch.setattr(fastpath, "_RANK_DTYPE", np.int8)
        traces = _rank_batch(uniform_values(1, 9), range(8))
        assert sum(map(len, traces)) > 127
        config = SwitchConfig.square(8, speedup=2, b_in=2, b_out=2,
                                     b_cross=1)
        batched = run_cioq_batch if model == "cioq" else run_crossbar_batch
        with pytest.raises(BackendUnsupported, match="int8"):
            fast_batch(model, factory, config, traces)
        auto = batched(factory, config, traces)
        for lane, tr in enumerate(traces):
            assert_payloads_identical(
                reference_run(model, factory(), config, tr), auto[lane],
                label=f"(lane {lane})")


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
    ref_recs = [InMemoryRecorder(every_k=1) for _ in traces]
    serial = [reference_run("cioq", PGPolicy(), config, tr, metrics=ref_rec)
              for tr, ref_rec in zip(traces, ref_recs)]
    rec = InMemoryRecorder(every_k=1)
    batched = fast_batch("cioq", PGPolicy, config, traces, metrics=rec)
    assert len(batched) == len(serial)
    for k, (ref, fast) in enumerate(zip(serial, batched)):
        assert_payloads_identical(ref, fast, label=f"(lane {k})")
        assert_series_identical(ref_recs[k], rec, k, label=f"(lane {k})")

    xserial = reference_batch("crossbar", CPGPolicy, config, traces)
    xbatched = fast_batch("crossbar", CPGPolicy, config, traces)
    for k, (ref, fast) in enumerate(zip(xserial, xbatched)):
        assert_payloads_identical(ref, fast, label=f"(xbar lane {k})")


@pytest.mark.parametrize("model, factory", [
    ("cioq", GMPolicy), ("cioq", PGPolicy),
    ("crossbar", CGUPolicy), ("crossbar", CPGPolicy),
])
def test_batch_leaves_no_cyclic_garbage(model, factory):
    """A finished batch frees its arrays at once.  The run and its
    stepper refer to each other, and ``run_batch`` breaks that cycle;
    left to the cyclic collector, one batch's arrays stayed allocated
    while the next batch ran, which raised a process's peak memory by
    an amount that depended on when the collector happened to run."""
    import gc

    config = SwitchConfig.square(4, speedup=2, b_in=3, b_out=3, b_cross=1)
    tm = BernoulliTraffic(4, 4, load=1.4, value_model=uniform_values(1, 9))
    traces = [tm.generate(20, seed=s) for s in range(16)]
    gc.collect()
    gc.disable()
    try:
        fast_batch(model, factory, config, traces,
                   metrics=InMemoryRecorder(every_k=1))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_replicated_artifacts_byte_identical(tmp_path, monkeypatch):
    """The full replication pipeline — batched fast ladder vs serial
    reference — writes byte-identical summary.json / summary.csv (and
    result.json/result.csv), the artifact-level form of the contract."""
    from repro.parallel import SweepExecutor
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
    for kernel in ("reference", "fast"):
        with monkeypatch.context() as patch:
            pin_kernel(patch, kernel)
            rrun = replicate_scenario(spec, executor=SweepExecutor())
        target = tmp_path / kernel
        paths = write_replicated_artifacts(rrun, str(target))
        out[kernel] = {
            p.rsplit("/", 1)[-1]: open(p, "rb").read() for p in paths
        }
    assert set(out["reference"]) == set(out["fast"])
    for name, blob in out["reference"].items():
        assert out["fast"][name] == blob, (
            f"artifact {name} differs between kernels"
        )
    # Sanity: the summary actually carries per-policy rows.
    summary = json.loads(out["fast"]["summary.json"])
    assert summary["seeds_used"] == [3, 4, 5, 6, 7, 8]
    assert {r["policy"] for r in summary["summary"]} == {"gm", "pg"}


# ---------------------------------------------------------------------------
# Satellite: metrics recorders never perturb payloads (PR 9)
# ---------------------------------------------------------------------------

class TestMetricsNeutrality:
    """The observability layer rides along the kernel contract: running
    with no recorder, with :data:`NULL_METRICS`, and with an active
    :class:`InMemoryRecorder` must all produce exact-equal payloads on
    both kernels — and the recorder snapshots themselves must be
    byte-identical between the kernels."""

    def _modes(self):
        from repro.obs import NULL_METRICS

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
        factory = GMPolicy if model == "cioq" else CGUPolicy
        base = reference_batch(model, factory, config, traces)
        for mode, make in self._modes():
            ref_recs = [make() for _ in traces]
            ref = [reference_run(model, factory(), config, tr,
                                 metrics=ref_rec)
                   for tr, ref_rec in zip(traces, ref_recs)]
            rec = make()
            fast = fast_batch(model, factory, config, traces, metrics=rec)
            for k, (b, r, f) in enumerate(zip(base, ref, fast)):
                assert_payloads_identical(
                    b, r, label=f"(metrics={mode}, ref lane {k})")
                assert_payloads_identical(
                    b, f, label=f"(metrics={mode}, fast lane {k})")
                if mode in ("active", "sampled"):
                    assert_series_identical(
                        ref_recs[k], rec, k,
                        label=f"(metrics={mode}, lane {k})")

    @pytest.mark.parametrize("every_k", [1, 4])
    def test_recorder_snapshots_backend_identical(self, every_k):
        """One shared recorder across a seed ladder: a serial reference
        batch and one lockstep fast batch must leave the recorder in a
        byte-identical state (counters, gauges, series)."""
        import json as _json

        config = SwitchConfig.square(4, speedup=2, b_in=3, b_out=3,
                                     b_cross=1)
        tm = BernoulliTraffic(4, 4, load=1.4,
                              value_model=uniform_values(1, 9))
        traces = [tm.generate(10 + 4 * k, seed=k) for k in range(3)]
        ref_rec = InMemoryRecorder(every_k=every_k)
        reference_batch("cioq", GMPolicy, config, traces, metrics=ref_rec)
        fast_rec = InMemoryRecorder(every_k=every_k)
        fast_batch("cioq", GMPolicy, config, traces, metrics=fast_rec)
        ref_snap = ref_rec.snapshot()
        fast_snap = fast_rec.snapshot()
        assert _json.dumps(ref_snap, sort_keys=True) == _json.dumps(
            fast_snap, sort_keys=True)


def test_executor_cache_is_backend_agnostic(tmp_path, monkeypatch):
    """Payloads cached by an executor on the fast kernel are served
    verbatim to one on the reference kernel: the cache key deliberately
    excludes the kernel because the contract makes payloads
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
    with monkeypatch.context() as patch:
        pin_kernel(patch, "fast")
        fast_ex = SweepExecutor(cache_dir=cache)
        fast_payloads = fast_ex.run(points)
    assert fast_ex.cache_misses == 4
    pin_kernel(monkeypatch, "reference")
    ref_ex = SweepExecutor(cache_dir=cache)
    ref_payloads = ref_ex.run(points)
    assert ref_ex.cache_hits == 4 and ref_ex.cache_misses == 0
    assert ref_payloads == fast_payloads
    # And a cold reference run agrees payload-for-payload.
    cold = SweepExecutor().run(points)
    assert cold == fast_payloads
