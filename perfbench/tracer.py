"""Traced ``repro.cli`` process for the per-layer benchmark run.

Usage::

    python perfbench/tracer.py SPANS_JSON -- <repro.cli arguments>

Runs ``repro.cli.main`` in this process with the public functions of
each layer wrapped in spans.  Nothing under ``src/`` changes: every
wrapper is installed from here, at the attribute its caller looks the
function up by.  ``from ... import`` copies names into the importing
module, so e.g. ``repro.parallel.cioq_opt`` is wrapped in
``repro.parallel`` (where ``run_sweep_point`` finds it), not only in
``repro.offline.opt``.

A span is ``[id, name, start, end, parent_id, trace_id]`` with times
from ``time.perf_counter`` (``CLOCK_MONOTONIC``, so the parent process
can place them against its own spawn and reap times).  ``trace_id``
names the sweep point (``model:policy:seed``) or trace a span works
for; children inherit their parent's id.  Spans stay in memory and are
written to SPANS_JSON when ``main`` returns, together with the layer
counters.  After the spans close, every exact OPT solve's certified
``bounds`` bracket is computed to count tight brackets; that time is
reported as ``post_s`` so the caller can leave it out of the wall.
"""

import sys
import time

T_START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
from collections import Counter  # noqa: E402


class Tracer:
    """In-memory span recorder plus per-layer counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.stack = []
        #: store key -> trace id of the point that hashed it.
        self.key_ids = {}
        #: (trace, config, model) of every exact OPT solve.
        self.exact_solves = []
        self.executors = []

    def open(self, name, trace_id=None):
        parent = self.stack[-1] if self.stack else None
        if trace_id is None and parent is not None:
            trace_id = self.spans[parent][5]
        sid = len(self.spans)
        self.spans.append([sid, name, time.perf_counter(), None, parent,
                           trace_id])
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr, name, trace_of=None, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``trace_of(args, kwargs)`` names the span's trace id;
        ``after(args, kwargs, result)`` updates counters once the span
        has closed, so counting never lands in layer time.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = trace_of(args, kwargs) if trace_of is not None else None
            sid = tracer.open(name, tid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)


def point_id(point):
    return f"{point.model}:{point.tag.get('policy')}:{point.seed}"


def install(tracer):
    """Wrap every layer boundary the benchmark reports on."""
    import repro.cli as cli
    import repro.farm.store as store
    import repro.offline.crossbar_timegraph as xtg
    import repro.offline.timegraph as tg
    import repro.parallel as parallel
    import repro.scenarios as scenarios
    import repro.scenarios.runner as runner
    import repro.stats as stats
    import repro.stats.replication as replication
    import repro.stats.summarize as summarize
    from repro.scenarios.spec import ScenarioSpec
    from repro.traffic.base import TrafficModel
    from repro.traffic.replay import TraceReplayTraffic

    wrap, counts = tracer.wrap, tracer.counts

    # cli: spec resolution and the printed report.
    wrap(cli, "_load_spec", "scenarios.spec_build")
    wrap(cli, "build_parser", "cli.parse")
    for method in ("build_config", "build_traffic", "policy_factories"):
        wrap(ScenarioSpec, method, "scenarios.spec_build")
    wrap(runner.ScenarioRun, "tables", "cli.report")
    wrap(replication.ReplicatedRun, "tables", "cli.report")

    # scenarios: the runner (its own loop) and artifact writes.  The
    # CLI imports run_scenario / write_artifacts from the package at
    # call time; replication holds its own copies.
    wrap(scenarios, "run_scenario", "scenarios.run")
    wrap(replication, "run_scenario", "scenarios.run")
    wrap(scenarios, "write_artifacts", "scenarios.artifacts")
    wrap(replication, "write_artifacts", "scenarios.artifacts")
    wrap(stats, "write_replicated_artifacts", "scenarios.artifacts")

    # stats: the replication loop and bootstrap resampling.
    wrap(stats, "replicate_scenario", "stats.replicate")
    wrap(summarize, "bootstrap_interval", "stats.bootstrap")

    # obs: provenance manifests.
    for module, attr in ((runner, "build_manifest"),
                         (runner, "write_manifest"),
                         (replication, "write_manifest")):
        wrap(module, attr, "obs.manifest")

    # traffic: trace generation.
    def count_packets(args, kwargs, trace):
        counts["traffic.packets"] += len(trace.packets)
        counts["traffic.traces"] += 1

    def trace_seed(args, kwargs):
        return f"trace:{kwargs.get('seed', args[2] if len(args) > 2 else 0)}"

    for cls in (TrafficModel, TraceReplayTraffic):
        wrap(cls, "generate", "traffic.generate", trace_of=trace_seed,
             after=count_packets)

    # parallel: executor loop, cache keys and per-task dispatch.
    def keep_executor(args, kwargs, result):
        if args[0] not in tracer.executors:
            tracer.executors.append(args[0])

    def remember_key(args, kwargs, key):
        tracer.key_ids[key] = point_id(args[1])

    def task_id(args, kwargs):
        kind, items = args[0]
        first = point_id(items[0][1])
        return first if len(items) == 1 else f"{first}+{len(items) - 1}"

    wrap(parallel.SweepExecutor, "run", "parallel.run", after=keep_executor)
    wrap(parallel.SweepExecutor, "cache_key", "parallel.cache_key",
         trace_of=lambda a, k: point_id(a[1]), after=remember_key)
    wrap(parallel, "_run_task", "parallel.task", trace_of=task_id)

    # farm: result-store I/O.
    def key_id(args, kwargs):
        return tracer.key_ids.get(args[1])

    def count_put(args, kwargs, path):
        counts["farm.bytes_written"] += os.path.getsize(path)

    wrap(store.ResultStore, "get", "farm.get", trace_of=key_id)
    wrap(store.ResultStore, "put", "farm.put", trace_of=key_id,
         after=count_put)
    wrap(store.ResultStore, "claim", "farm.claim", trace_of=key_id)
    wrap(store.ResultStore, "release", "farm.release", trace_of=key_id)

    # simulation: single and lockstep-batched engine entries, as
    # repro.parallel imported them.
    def count_single(args, kwargs, res):
        counts["simulation.slots"] += res.n_arrival_slots
        counts["simulation.points"] += 1

    def count_batch(args, kwargs, results):
        counts["simulation.slots"] += sum(r.n_arrival_slots for r in results)
        counts["simulation.points"] += len(results)
        counts["simulation.batched_points"] += len(results)

    for attr in ("run_cioq", "run_crossbar"):
        wrap(parallel, attr, "simulation.run", after=count_single)
    for attr in ("run_cioq_batch", "run_crossbar_batch"):
        wrap(parallel, attr, "simulation.run", after=count_batch)

    # offline: OPT solves (as repro.parallel imported them), model
    # builds and the HiGHS MILP call of each time-graph module.
    def note_solve(model):
        def after(args, kwargs, result):
            counts["offline.solves"] += 1
            if result.mode == "exact":
                tracer.exact_solves.append((args[0], args[1], model))
        return after

    wrap(parallel, "cioq_opt", "offline.solve", after=note_solve("cioq"))
    wrap(parallel, "crossbar_opt", "offline.solve",
         after=note_solve("crossbar"))
    wrap(tg.CIOQOptModel, "build", "offline.build")
    wrap(xtg.CrossbarOptModel, "build", "offline.build")
    wrap(tg, "milp", "offline.milp")
    wrap(xtg, "milp", "offline.milp")


def count_tight_brackets(tracer):
    """Exact solves whose certified ``bounds`` bracket had zero width."""
    from repro.offline.bounds import bounds_opt

    for trace, config, model in tracer.exact_solves:
        lo, hi = bounds_opt(trace, config, model=model).bracket
        tracer.counts["offline.bracket_tight"] += int(lo == hi)
    tracer.counts.setdefault("offline.bracket_tight", 0)


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- <repro.cli args>")
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()

    sid = tracer.open("cli.import")
    import repro.cli
    tracer.close(sid)
    tracer.counts["cli.scipy_at_import"] = int("scipy" in sys.modules)

    install(tracer)
    try:
        code = repro.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code
    t_main_end = time.perf_counter()

    for ex in tracer.executors:
        if ex.store is not None:
            tracer.counts["farm.hits"] += ex.cache_hits
            tracer.counts["farm.misses"] += ex.cache_misses
    count_tight_brackets(tracer)
    t_dump = time.perf_counter()
    record = {
        "t_start": T_START,
        "t_main_end": t_main_end,
        "post_s": t_dump - t_main_end,
        "t_dump": t_dump,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    # The reaping parent charges interpreter teardown from here on.
    with open(out_path + ".end", "w", encoding="utf-8") as fh:
        fh.write(repr(time.perf_counter()))
    return code if isinstance(code, int) else (0 if code is None else 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
