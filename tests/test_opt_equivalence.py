"""Differential OPT test matrix: bounds and auto vs the exact MILP.

Pins the certified OPT solver (:mod:`repro.offline.bounds`) and the
``auto`` dispatch to the exact time-expanded MILP across every builtin
scenario (downscaled so exact OPT stays cheap):

* the near-free bounds bracket must sandwich the exact optimum;
* ``mode="auto"`` on these small instances resolves to exact and must
  reproduce its benefit **bit-for-bit** (no tolerance);
* cutting the arrivals at a slot brackets exact OPT by exact solves of
  the two halves (head forced to drain by the cut, then the tail, from
  below; the two halves with free drain from above);
* free drain is exact: the default model (arrival slots only, free
  final inventories) and the forced-drain model at ``default_horizon``
  give **bit-for-bit** equal benefits for both switch models, and
  schedule extraction from a default model returns the forced model's
  schedule;
* the drain lemma is validated differentially for both switch models:
  truncating the forced horizon to ``n_slots`` plus an O(N * b) drain
  period must not change exact OPT;
* :func:`~repro.offline.opt.solve_opt` dispatch and
  :func:`~repro.offline.opt.select_opt_mode` auto-selection are pinned
  (mode validation, exact on every builtin scenario, bounds past
  :data:`~repro.offline.opt.AUTO_EXACT_BUDGET`, deterministic
  selection).

Scenarios are downscaled to 6 arrival slots with small buffers so each
MILP solves in milliseconds; the *structure* (switch shape, traffic
model, value model) is the registered one.
"""

import pytest
from _strategies import split_trace

from repro.offline import (
    OPT_MODES,
    bounds_opt,
    capacity_upper_bound,
    cioq_opt,
    crossbar_opt,
    select_opt_mode,
    solve_opt,
)
from repro.offline.crossbar_timegraph import CrossbarOptModel
from repro.offline.opt import AUTO_EXACT_BUDGET, _exact_size_proxy
from repro.offline.timegraph import CIOQOptModel, default_horizon
from repro.scenarios import all_scenarios
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.trace import Trace
from repro.traffic.values import uniform_values, unit_values

#: Downscaled arrival horizon: small enough that exact OPT on every
#: builtin scenario solves in milliseconds.
SLOTS = 6

#: Seeds per scenario in the matrix (first two registered seeds).
SEEDS_PER_SCENARIO = 2

MODEL_CLASSES = {"cioq": CIOQOptModel, "crossbar": CrossbarOptModel}


def _forced(cls, trace, config):
    """The forced-drain model at ``default_horizon``."""
    return cls(trace, config, horizon=default_horizon(trace, config))


def _downscale(spec):
    """The registered scenario with tiny buffers and a short horizon.

    Ports and speedup are kept (traffic parameters like ``hot_port``
    validate against them); buffers shrink so the drain bound — and with
    it the MILP horizon — stays small.
    """
    switch = dict(spec.switch)
    switch.update(b_in=2, b_out=2, b_cross=1)
    return spec.with_overrides(slots=SLOTS, switch=switch)


def _cases():
    for spec in all_scenarios():
        for seed in spec.seeds[:SEEDS_PER_SCENARIO]:
            yield spec, seed


CASES = list(_cases())
CASE_IDS = [f"{spec.name}-s{seed}" for spec, seed in CASES]


def _instance(spec, seed):
    sub = _downscale(spec)
    config = sub.build_config()
    trace = sub.build_traffic().generate(sub.slots, seed=seed)
    exact_solver = cioq_opt if spec.model == "cioq" else crossbar_opt
    return trace, config, exact_solver


@pytest.mark.parametrize(("spec", "seed"), CASES, ids=CASE_IDS)
class TestDifferentialMatrix:
    def test_bounds_bracket_sandwiches_exact(self, spec, seed):
        trace, config, exact_solver = _instance(spec, seed)
        exact = exact_solver(trace, config)
        b = bounds_opt(trace, config, model=spec.model)
        assert b.mode == "bounds"
        assert b.opt_lower - 1e-9 <= exact.benefit <= b.opt_upper + 1e-9
        assert b.benefit == b.opt_upper

    def test_solve_opt_exact_mode_matches_direct_call(self, spec, seed):
        trace, config, exact_solver = _instance(spec, seed)
        exact = exact_solver(trace, config)
        via = solve_opt(trace, config, model=spec.model, mode="exact")
        assert via.benefit == exact.benefit
        assert via.mode == "exact"
        # Auto resolves to exact here; bit-for-bit: ==, not approx.
        auto = solve_opt(trace, config, model=spec.model, mode="auto")
        assert auto.benefit == exact.benefit
        assert auto.mode == "exact"

    def test_split_bounds_sandwich_exact(self, spec, seed):
        """A cut at arrival slot ``cut`` brackets exact OPT: the head
        forced to drain by the cut, then the tail from an empty switch,
        is a feasible schedule (lower); restricting OPT's schedule to
        either half is feasible for that half alone (upper)."""
        trace, config, exact_solver = _instance(spec, seed)
        exact = exact_solver(trace, config)
        cls = MODEL_CLASSES[spec.model]
        for cut in (1, 2, trace.n_slots // 2):
            head, tail = split_trace(trace, cut)
            forced_head = cls(head, config, horizon=cut).solve().benefit
            free_head = cls(head, config).solve().benefit
            rest = cls(tail, config).solve().benefit
            assert (forced_head + rest - 1e-9 <= exact.benefit
                    <= free_head + rest + 1e-9), (
                f"cut={cut}: [{forced_head + rest}, {free_head + rest}] "
                f"misses exact {exact.benefit}"
            )

    @pytest.mark.parametrize("kind", sorted(MODEL_CLASSES))
    def test_free_drain_matches_forced_drain_bitwise(self, spec, seed, kind):
        trace, config, _ = _instance(spec, seed)
        cls = MODEL_CLASSES[kind]
        free = cls(trace, config).solve()
        forced = _forced(cls, trace, config).solve()
        assert free.benefit == forced.benefit


#: Free-drain grid: (speedup, b_cross, values, load) on a 3x3 switch.
FREE_DRAIN_GRID = [
    (speedup, b_cross, values, load)
    for speedup in (1, 2)
    for b_cross in (1, 2)
    for values in ("unit", "weighted")
    for load in (0.7, 1.0, 1.5, 2.5)
]


def _grid_instance(speedup, b_cross, values, load, seed):
    config = SwitchConfig.square(3, speedup=speedup, b_in=2, b_out=2,
                                 b_cross=b_cross)
    value_model = unit_values() if values == "unit" else uniform_values(1, 50)
    trace = BernoulliTraffic(3, 3, load=load,
                             value_model=value_model).generate(8, seed=seed)
    return trace, config


class TestFreeDrain:
    """The default model spans the arrival slots only and leaves its
    final inventories free; with no arrivals any state within capacity
    drains, so it is exact — equal, bit for bit, to the forced-drain
    model at ``default_horizon``."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize(
        ("speedup", "b_cross", "values", "load"), FREE_DRAIN_GRID,
        ids=[f"s{s}-c{c}-{v}-load{ld}" for s, c, v, ld in FREE_DRAIN_GRID],
    )
    def test_grid_free_drain_matches_forced_drain_bitwise(
            self, speedup, b_cross, values, load, seed):
        trace, config = _grid_instance(speedup, b_cross, values, load, seed)
        for cls in MODEL_CLASSES.values():
            free = cls(trace, config)
            forced = _forced(cls, trace, config)
            assert free.horizon == trace.n_slots < forced.horizon
            assert free.solve().benefit == forced.solve().benefit

    @pytest.mark.parametrize("kind", sorted(MODEL_CLASSES))
    @pytest.mark.parametrize("seed", range(3))
    def test_schedule_extraction_uses_forced_drain(self, kind, seed):
        """Extraction from a default model switches that same object to
        forced drain at ``default_horizon``: the schedule (and the
        crossbar's subphase events) equal the forced model's, and the
        benefit equals the free-drain solve's."""
        trace, config = _grid_instance(2, 2, "weighted", 1.5, seed)
        cls = MODEL_CLASSES[kind]
        model = cls(trace, config)
        res = model.solve(extract_schedule=True)
        ref_model = _forced(cls, trace, config)
        ref = ref_model.solve(extract_schedule=True)
        assert not model.free_drain
        assert model.horizon == default_horizon(trace, config)
        assert res.accepted_pids == ref.accepted_pids
        assert res.departures == ref.departures
        assert res.transmissions == ref.transmissions
        assert len(res.transmissions) == res.n_delivered
        if kind == "crossbar":
            assert model.y_events == ref_model.y_events
            assert model.z_events == ref_model.z_events
        assert res.benefit == cls(trace, config).solve().benefit


def _drain_slots(config):
    """``max(n_in, n_out) * (b_in + b_cross) + b_out + 1``: the O(N * b)
    drain lemma period, against :func:`default_horizon`'s O(N^2 * b).

    With no further arrivals, colour the bipartite multigraph of
    buffered packets (one (i, j) edge each, at most
    ``max(n_in, n_out) * (b_in + b_cross)`` per port) into matchings by
    Koenig's theorem and move one matching a stage per slot; every
    packet then sits in its output queue, and ``b_out`` more slots flush
    those.
    """
    return (max(config.n_in, config.n_out) * (config.b_in + config.b_cross)
            + config.b_out + 1)


class TestDrainLemma:
    """The drain period is sufficient: cutting the forced horizon down
    to ``n_slots + _drain_slots(config)`` never changes exact OPT, for
    either switch model (tested differentially against the free-drain
    optimum)."""

    CONFIGS = [
        SwitchConfig.square(2, speedup=1, b_in=1, b_out=1, b_cross=1),
        SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1),
        SwitchConfig.square(3, speedup=2, b_in=2, b_out=1, b_cross=2),
    ]

    seeds = pytest.mark.parametrize("seed", range(4))
    configs = pytest.mark.parametrize(
        "config", CONFIGS, ids=lambda c: f"{c.n_in}x{c.n_out}s{c.speedup}"
    )

    @staticmethod
    def _check(config, seed, kind):
        trace = BernoulliTraffic(
            config.n_in, config.n_out, load=1.5,
            value_model=uniform_values(1, 9),
        ).generate(5, seed=seed)
        short = trace.n_slots + _drain_slots(config)
        assert short <= default_horizon(trace, config)
        full = solve_opt(trace, config, model=kind)
        cut = solve_opt(trace, config, model=kind, horizon=short)
        assert cut.benefit == full.benefit

    @seeds
    @configs
    def test_drain_horizon_preserves_opt(self, config, seed):
        self._check(config, seed, "cioq")

    @seeds
    @configs
    def test_drain_horizon_preserves_crossbar_opt(self, config, seed):
        self._check(config, seed, "crossbar")

    def test_drain_slots_below_default_bound(self):
        for config in self.CONFIGS:
            trace = Trace([], config.n_in, config.n_out)
            assert (trace.n_slots + _drain_slots(config)
                    <= default_horizon(trace, config))


class TestHorizonValidation:
    """Every solver that takes a horizon rejects one that does not
    extend past the last arrival (a packet at slot 6 here) instead of
    crashing (horizon 3) or silently dropping the packet (horizon 6)."""

    TRACE = Trace([Packet(0, 1.0, 0, 0, 1), Packet(1, 2.0, 6, 1, 0)], 2, 2)

    @pytest.mark.parametrize("horizon", (3, 6))
    def test_early_horizon_rejected(self, tiny_config, horizon):
        for solve in (
            lambda: capacity_upper_bound(self.TRACE, tiny_config,
                                         horizon=horizon),
            lambda: bounds_opt(self.TRACE, tiny_config, horizon=horizon),
            lambda: cioq_opt(self.TRACE, tiny_config, horizon=horizon),
            lambda: crossbar_opt(self.TRACE, tiny_config, horizon=horizon),
        ):
            with pytest.raises(ValueError,
                               match="horizon must extend past the last"):
                solve()

    def test_first_valid_horizon_keeps_late_packet(self, tiny_config):
        assert capacity_upper_bound(self.TRACE, tiny_config,
                                    horizon=7) == 3.0
        assert cioq_opt(self.TRACE, tiny_config, horizon=7).benefit == 3.0


class TestDispatchAndSelection:
    def test_rejects_unknown_mode(self, tiny_config):
        trace = Trace([], 2, 2)
        with pytest.raises(ValueError, match="unknown opt mode"):
            solve_opt(trace, tiny_config, mode="magic")

    def test_rejects_unknown_model(self, tiny_config):
        trace = Trace([], 2, 2)
        with pytest.raises(ValueError, match="unknown offline model"):
            solve_opt(trace, tiny_config, model="banyan")

    def test_auto_picks_exact_for_small(self, tiny_config):
        trace = Trace([], 2, 2)
        assert select_opt_mode(trace, tiny_config) == "exact"

    @pytest.mark.parametrize("spec", all_scenarios(), ids=lambda s: s.name)
    def test_auto_picks_exact_on_builtin_scenarios(self, spec):
        """Every registered seed (replicate ladders included) of every
        builtin scenario, at its registered size, stays exact."""
        from repro.stats import ReplicationPlan

        seeds = set(spec.seeds)
        if spec.replicates:
            seeds.update(ReplicationPlan.from_spec(spec).seeds())
        config = spec.build_config()
        traffic = spec.build_traffic()
        for seed in sorted(seeds):
            trace = traffic.generate(spec.slots, seed=seed)
            assert select_opt_mode(trace, config) == "exact", seed

    def test_auto_is_deterministic_and_valid(self):
        # One packet arriving at slot-1 sets the trace's slot horizon
        # without materializing a big packet list.
        for n, slots in [(2, 4), (4, 64), (8, 512), (16, 4096)]:
            config = SwitchConfig.square(n, speedup=2, b_in=4, b_out=4)
            trace = Trace([Packet(0, 1.0, slots - 1, 0, 0)], n, n)
            first = select_opt_mode(trace, config)
            second = select_opt_mode(trace, config)
            assert first == second
            assert first in OPT_MODES and first != "auto"

    def test_proxy_threshold_respected(self):
        config = SwitchConfig.square(16, speedup=2, b_in=4, b_out=4)
        # All 256 pairs active with a late arrival => long horizon and
        # a full pair set => huge proxy.
        packets = [
            Packet(16 * i + j, 1.0, 9999, i, j)
            for i in range(16) for j in range(16)
        ]
        trace = Trace(packets, 16, 16)
        horizon = default_horizon(trace, config)
        assert _exact_size_proxy(trace, config, horizon) > AUTO_EXACT_BUDGET
        assert select_opt_mode(trace, config) == "bounds"
