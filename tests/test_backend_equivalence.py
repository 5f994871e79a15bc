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
from repro.scheduling.matching import greedy_maximal_matching_weighted
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

    @pytest.mark.parametrize("runner, policy, caps", [
        (run_cioq, GMPolicy, {"b_in": 40000}),
        (run_crossbar, CGUPolicy, {"b_cross": 40000}),
    ])
    def test_fast_rejects_capacity_beyond_its_length_dtype(self, runner,
                                                           policy, caps):
        """The fast kernel counts queue lengths in int16: a larger
        capacity raises under ``fast`` and runs on the reference kernel
        under ``auto`` (it used to corrupt the queues and trip the
        conservation check)."""
        config = SwitchConfig(**{"n_in": 2, "n_out": 2, "b_in": 2,
                                 "b_out": 2, **caps})
        trace = BernoulliTraffic(2, 2, load=3.0).generate(50, seed=0)
        with pytest.raises(BackendUnsupported, match="capacity 40000"):
            runner(policy(), config, trace, backend="fast")
        ref = runner(policy(), config, trace)
        auto = runner(policy(), config, trace, backend="auto")
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
    """A lockstep ``fast`` batch of 1-5 lanes of different lengths
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
        serial, batched = ((run_cioq, run_cioq_batch) if switch == "cioq"
                           else (run_crossbar, run_crossbar_batch))
        refs = [serial(factory(), config, tr, trace_occupancy=occ)
                for tr in traces]
        fasts = batched(factory, config, traces, trace_occupancy=occ,
                        backend="fast")
        assert len(fasts) == len(refs)
        for lane, (ref, fast) in enumerate(zip(refs, fasts)):
            assert_payloads_identical(
                ref, fast, label=f"(case {case}, seed {seed}, lane {lane})")


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
        ref = run_cioq(PGPolicy(beta=beta), config, trace)
        fast = run_cioq(PGPolicy(beta=beta), config, trace, backend="fast")
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
        serial, batched = ((run_cioq, run_cioq_batch) if model == "cioq"
                           else (run_crossbar, run_crossbar_batch))
        refs = [serial(factory(), config, tr) for tr in traces]
        fasts = batched(factory, config, traces, backend="fast")
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
    batch raises ``BackendUnsupported`` under ``fast`` and runs on the
    reference kernel under ``auto``, checked without 2**31 packets."""

    def test_int32_limit(self):
        class Huge(Trace):
            """A small trace that reports 2**31 packets."""

            def __len__(self):
                return 2 ** 31

        small = BernoulliTraffic(2, 2, load=1.0).generate(5, seed=0)
        huge = Huge.from_columns(*small.columns(), 2, 2)
        with pytest.raises(BackendUnsupported,
                           match="cannot number the batch's 2147483648"):
            run_cioq(GMPolicy(), SwitchConfig.square(2), huge,
                     backend="fast")

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
        serial, batched = ((run_cioq, run_cioq_batch) if model == "cioq"
                           else (run_crossbar, run_crossbar_batch))
        with pytest.raises(BackendUnsupported, match="int8"):
            batched(factory, config, traces, backend="fast")
        auto = batched(factory, config, traces, backend="auto")
        for lane, tr in enumerate(traces):
            assert_payloads_identical(serial(factory(), config, tr),
                                      auto[lane], label=f"(lane {lane})")


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
    for backend in ("reference", "fast"):
        rrun = replicate_scenario(spec,
                                  executor=SweepExecutor(backend=backend))
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
