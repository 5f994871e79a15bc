"""Property-based tests over the seeded strategies in ``_strategies.py``.

Each test draws :data:`~_strategies.N_CASES` arbitrary instances per
seed and asserts an invariant:

* ScenarioSpec TOML and JSON round-trips are the identity for any valid
  spec (including replicates blocks, nested params and awkward strings);
* traffic models conserve packet counts, never emit out-of-range ports,
  slots or non-positive values, and are pure functions of the seed;
* Welford accumulation matches batch statistics to 1e-9 relative error,
  and merging split halves matches the un-split accumulator.

The suite always runs under the committed ``FIXED_SEED``; CI adds a
randomized second seed through ``REPRO_PROP_SEED`` (the seed is in the
pytest id, so a failure names the exact value to reproduce with).
"""

import math
import os
import random
import statistics
import tempfile

import pytest

from _strategies import (
    N_CASES,
    float_sample,
    property_seeds,
    spec_strategy,
    traffic_strategy,
)
from repro.scenarios import ScenarioSpec
from repro.stats import Welford
from repro.traffic.replay import TraceReplayTraffic
from repro.traffic.trace import Trace

SEEDS = property_seeds()


def _ids(seed: int) -> str:
    return f"seed={seed:#x}"


@pytest.mark.parametrize("seed", SEEDS, ids=_ids)
class TestSpecRoundTrip:
    def test_toml_and_json_round_trip_identity(self, seed):
        rng = random.Random(seed)
        for case in range(N_CASES):
            spec = spec_strategy(rng)
            context = f"seed={seed:#x} case={case} spec={spec.name!r}"
            via_toml = ScenarioSpec.from_toml(spec.to_toml())
            assert via_toml == spec, f"TOML round trip changed {context}"
            via_json = ScenarioSpec.from_json(spec.to_json())
            assert via_json == spec, f"JSON round trip changed {context}"
            # to_dict is itself stable through a round trip.
            assert via_toml.to_dict() == spec.to_dict(), context

    def test_round_trip_preserves_derived_views(self, seed):
        rng = random.Random(seed)
        for _ in range(N_CASES):
            spec = spec_strategy(rng)
            back = ScenarioSpec.from_toml(spec.to_toml())
            assert back.policy_labels() == spec.policy_labels()
            assert back.seeds == spec.seeds
            assert dict(back.replicates) == dict(spec.replicates)


@pytest.mark.parametrize("seed", SEEDS, ids=_ids)
class TestTrafficInvariants:
    def test_ports_values_slots_in_range_and_pids_dense(self, seed):
        rng = random.Random(seed)
        for case in range(N_CASES):
            model, n_in, n_out = traffic_strategy(rng)
            n_slots = rng.randint(1, 40)
            trace = model.generate(n_slots, seed=rng.randrange(10_000))
            context = f"seed={seed:#x} case={case} model={model.name!r}"
            assert (trace.n_in, trace.n_out) == (n_in, n_out), context
            for p in trace.packets:
                assert 0 <= p.src < n_in, context
                assert 0 <= p.dst < n_out, context
                assert 0 <= p.arrival < n_slots, context
                assert p.value > 0 and math.isfinite(p.value), context
            # Packet ids are dense and in arrival order (the repo's
            # tie-breaking convention).
            assert [p.pid for p in trace.packets] == \
                   list(range(len(trace.packets))), context
            arrivals = [p.arrival for p in trace.packets]
            assert arrivals == sorted(arrivals), context

    def test_generation_is_pure_function_of_seed(self, seed):
        rng = random.Random(seed)
        for _ in range(N_CASES):
            model, _n_in, _n_out = traffic_strategy(rng)
            n_slots = rng.randint(1, 30)
            trace_seed = rng.randrange(10_000)
            first = model.generate(n_slots, seed=trace_seed)
            second = model.generate(n_slots, seed=trace_seed)
            assert (first.name, first.content_digest()) == \
                   (second.name, second.content_digest()), model.name

    def test_replay_conserves_packets_and_values(self, seed):
        """Replaying a recorded trace reproduces its packet count,
        per-slot arrivals and total value exactly."""
        rng = random.Random(seed)
        for _ in range(N_CASES):
            model, _n_in, _n_out = traffic_strategy(rng)
            n_slots = rng.randint(1, 25)
            original = model.generate(n_slots, seed=rng.randrange(10_000))
            replayed = TraceReplayTraffic(original).generate(n_slots)
            assert len(replayed) == len(original), model.name
            assert [(p.src, p.dst, p.arrival, p.value)
                    for p in replayed.packets] == \
                   [(p.src, p.dst, p.arrival, p.value)
                    for p in original.packets], model.name


def _packet_rows(trace):
    return [(p.pid, p.value, p.arrival, p.src, p.dst)
            for p in trace.packets]


@pytest.mark.parametrize("seed", SEEDS, ids=_ids)
class TestTraceStreaming:
    def test_stream_round_trip_identity_with_trailing_idle(self, seed):
        """save -> load round-trips any trace exactly, explicit
        trailing idle slots included (the n_slots bugfix)."""
        rng = random.Random(seed)
        for case in range(N_CASES):
            model, _n_in, _n_out = traffic_strategy(rng)
            n_slots = rng.randint(1, 30)
            trace = model.generate(n_slots, seed=rng.randrange(10_000))
            if rng.random() < 0.5:
                # Re-wrap with extra trailing idle slots.
                trace = Trace(trace.packets, trace.n_in, trace.n_out,
                              name=trace.name,
                              n_slots=trace.n_slots + rng.randint(1, 20))
            context = f"seed={seed:#x} case={case} model={model.name!r}"
            fd, path = tempfile.mkstemp(suffix=".jsonl")
            os.close(fd)
            try:
                trace.save(path, chunk_slots=rng.randint(1, 40))
                back = Trace.load(path)
            finally:
                os.unlink(path)
            assert back.n_slots == trace.n_slots, context
            assert (back.n_in, back.n_out) == \
                   (trace.n_in, trace.n_out), context
            assert _packet_rows(back) == _packet_rows(trace), context

    def test_arrival_source_matches_generate(self, seed):
        """Driving a model's streaming arrival_source slot-by-slot
        reproduces generate()'s packets exactly (the byte-identity
        contract behind run_*_streaming)."""
        rng = random.Random(seed)
        for case in range(N_CASES):
            model, _n_in, _n_out = traffic_strategy(rng)
            n_slots = rng.randint(1, 30)
            trace_seed = rng.randrange(10_000)
            trace = model.generate(n_slots, seed=trace_seed)
            source = model.arrival_source(seed=trace_seed)
            streamed = []
            for t in range(n_slots):
                for src, dst, value in source(t, None):
                    streamed.append((len(streamed), value, t, src, dst))
            context = f"seed={seed:#x} case={case} model={model.name!r}"
            assert streamed == _packet_rows(trace), context

    def test_streaming_replay_matches_materialized(self, seed):
        """A stream-file-backed TraceReplayTraffic replays arrivals and
        recorded values identically to the materialized trace."""
        rng = random.Random(seed)
        for case in range(N_CASES):
            model, _n_in, _n_out = traffic_strategy(rng)
            n_slots = rng.randint(1, 25)
            trace = model.generate(n_slots, seed=rng.randrange(10_000))
            context = f"seed={seed:#x} case={case} model={model.name!r}"
            fd, path = tempfile.mkstemp(suffix=".jsonl")
            os.close(fd)
            try:
                trace.save(path, chunk_slots=rng.randint(1, 10))
                replay = TraceReplayTraffic(path)
                assert replay._trace is None, context  # not materialized
                source = replay.arrival_source()
                streamed = []
                for t in range(trace.n_slots):
                    for src, dst, value in source(t, None):
                        streamed.append((len(streamed), value, t, src, dst))
            finally:
                os.unlink(path)
            assert streamed == _packet_rows(trace), context


@pytest.mark.parametrize("seed", SEEDS, ids=_ids)
class TestWelfordProperties:
    def test_matches_batch_mean_and_variance(self, seed):
        rng = random.Random(seed)
        for case in range(N_CASES):
            values = float_sample(rng)
            acc = Welford.from_values(values)
            context = f"seed={seed:#x} case={case} n={len(values)}"
            assert acc.n == len(values), context
            assert acc.mean == pytest.approx(
                statistics.fmean(values), rel=1e-9, abs=1e-9), context
            if len(values) >= 2:
                assert acc.variance == pytest.approx(
                    statistics.variance(values), rel=1e-9, abs=1e-9), context
            else:
                assert math.isnan(acc.variance), context

    def test_merge_of_split_halves_matches_whole(self, seed):
        rng = random.Random(seed)
        for case in range(N_CASES):
            values = float_sample(rng)
            cut = rng.randint(0, len(values))
            merged = Welford.from_values(values[:cut]).merge(
                Welford.from_values(values[cut:]))
            whole = Welford.from_values(values)
            context = f"seed={seed:#x} case={case} cut={cut}"
            assert merged.n == whole.n, context
            assert merged.mean == pytest.approx(
                whole.mean, rel=1e-9, abs=1e-9), context
            if whole.n >= 2:
                assert merged.variance == pytest.approx(
                    whole.variance, rel=1e-9, abs=1e-9), context

@pytest.mark.parametrize("seed", SEEDS, ids=_ids)
class TestCertifiedOptBrackets:
    """Certified-bracket invariants of the bounds OPT solver, checked
    against the exact MILP on tiny instances (see
    ``docs/offline_opt.md``), the exactness of the exact MILP's free
    drain, and the order its forced-drain horizons and split halves
    keep around it.  Exact solves dominate the runtime, so the per-seed
    case count is lower than :data:`N_CASES`.
    """

    N_OPT_CASES = 8

    @staticmethod
    def _tol(x: float) -> float:
        return 1e-7 * (1.0 + abs(x))

    def test_brackets_sandwich_exact(self, seed):
        from _strategies import opt_instance_strategy
        from repro.offline import bounds_opt, solve_opt

        rng = random.Random(seed)
        for case in range(self.N_OPT_CASES):
            trace, config, model = opt_instance_strategy(rng)
            exact = solve_opt(trace, config, model=model, mode="exact")
            total = sum(p.value for p in trace.packets)
            tol = self._tol(exact.benefit)
            context = f"seed={seed:#x} case={case} trace={trace.name}"
            res = bounds_opt(trace, config, model=model)
            if trace.n_slots >= 1:
                # Unused draw: keeps the fixed-seed instance stream.
                rng.randint(1, trace.n_slots)
            assert res.opt_lower <= res.opt_upper + tol, context
            assert res.opt_lower - tol <= exact.benefit, context
            assert exact.benefit <= res.opt_upper + tol, context
            assert 0.0 <= res.opt_lower + tol, context
            assert res.opt_upper <= total + self._tol(total), context

    def test_free_drain_matches_forced_drain(self, seed):
        """The default model (arrival slots only, free final
        inventories) gives bit for bit the forced-drain optimum at
        ``default_horizon``."""
        from _strategies import opt_instance_strategy
        from repro.offline.crossbar_timegraph import CrossbarOptModel
        from repro.offline.timegraph import CIOQOptModel, default_horizon

        classes = {"cioq": CIOQOptModel, "crossbar": CrossbarOptModel}
        rng = random.Random(seed)
        for case in range(self.N_OPT_CASES):
            trace, config, model = opt_instance_strategy(rng)
            cls = classes[model]
            free = cls(trace, config).solve()
            forced = cls(trace, config,
                         horizon=default_horizon(trace, config)).solve()
            context = f"seed={seed:#x} case={case} trace={trace.name}"
            assert free.benefit == forced.benefit, context

    def test_forced_horizon_tightens_monotonically(self, seed):
        """Lengthening the forced-drain horizon never lowers exact OPT
        (a schedule that drains by ``h`` also drains by ``h + 1``) and
        never passes the free-drain optimum."""
        from _strategies import opt_instance_strategy
        from repro.offline.crossbar_timegraph import CrossbarOptModel
        from repro.offline.timegraph import CIOQOptModel

        classes = {"cioq": CIOQOptModel, "crossbar": CrossbarOptModel}
        rng = random.Random(seed)
        for case in range(self.N_OPT_CASES):
            trace, config, model = opt_instance_strategy(rng)
            cls = classes[model]
            last = trace.packets[-1].arrival if trace.packets else 0
            h = rng.randint(last + 1, trace.n_slots + 2)
            short = cls(trace, config, horizon=h).solve().benefit
            longer = cls(trace, config, horizon=h + 1).solve().benefit
            free = cls(trace, config).solve().benefit
            tol = self._tol(free)
            context = f"seed={seed:#x} case={case} h={h} trace={trace.name}"
            assert short <= longer + tol, context
            assert longer <= free + tol, context

    def test_concatenation_stitching(self, seed):
        """Splitting a trace at an arrival slot stitches exactly: the
        head forced to drain by the cut plus the tail's optimum (below)
        and the two halves' free-drain optima (above) sandwich the exact
        optimum of the whole trace."""
        from _strategies import opt_instance_strategy, split_trace
        from repro.offline import solve_opt
        from repro.offline.crossbar_timegraph import CrossbarOptModel
        from repro.offline.timegraph import CIOQOptModel

        classes = {"cioq": CIOQOptModel, "crossbar": CrossbarOptModel}
        rng = random.Random(seed)
        for case in range(self.N_OPT_CASES):
            trace, config, model = opt_instance_strategy(rng)
            if trace.n_slots < 2:
                continue
            w = rng.randint((trace.n_slots + 1) // 2, trace.n_slots - 1)
            head, tail = split_trace(trace, w)
            exact = solve_opt(trace, config, model=model, mode="exact")
            e_head = solve_opt(head, config, model=model, mode="exact")
            e_tail = solve_opt(tail, config, model=model, mode="exact")
            forced_head = classes[model](head, config, horizon=w).solve()
            tol = self._tol(exact.benefit)
            context = f"seed={seed:#x} case={case} w={w} trace={trace.name}"
            assert forced_head.benefit <= e_head.benefit + tol, context
            assert (forced_head.benefit + e_tail.benefit - tol
                    <= exact.benefit
                    <= e_head.benefit + e_tail.benefit + tol), context
