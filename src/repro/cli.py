"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------

``figures``
    Print the paper's Figure 1 / Figure 2 topology renderings.
``run``
    Simulate a policy on generated traffic and print the result summary
    (optionally with delay statistics and an occupancy sparkline).
``ratio``
    Measure the empirical competitive ratio of a policy against the
    exact offline optimum.
``sweep``
    Run a (load x seed) grid of simulations for several policies — one
    scenario spec per load, all run through one executor call,
    optionally fanned out over ``--workers`` processes and cached on
    disk via ``--cache-dir`` — and print per-cell plus per-load
    aggregate tables.  Results are bit-identical for any worker count.
``scenarios``
    The declarative experiment subsystem (see docs/scenarios.md):
    ``list`` the registered catalog, ``show`` one spec, ``run`` a
    scenario (by name or from a TOML/JSON file) and write versioned
    JSON/CSV artifacts under ``results/``, or ``export`` a spec as
    TOML/JSON for editing.  ``run --replicates N --ci 95`` replicates
    the scenario across N seeds and adds mean/std/CI summary artifacts
    (see docs/statistics.md).
``stats``
    Statistics over written result artifacts: ``summarize`` recomputes
    mean/std/CI summary rows from an existing ``results/<name>/``
    record without re-simulating.
``obs``
    Observability surface (see docs/observability.md): ``export``
    renders a written ``metrics.jsonl`` stream as Prometheus text,
    ``tail`` prints its last events.  ``sweep``, ``scenarios run`` and
    ``trace replay`` grow ``--metrics`` / ``--metrics-every K`` /
    ``--metrics-out DIR`` flags that collect deterministic run metrics
    (identical bytes for any worker count) plus a quarantined wall-time
    ledger.
``submit`` / ``serve`` / ``farm``
    The experiment farm (see docs/parallel.md): ``submit`` enqueues
    scenario jobs on a file-based queue, ``serve`` drains the queue
    through one persistent worker pool and shared content-addressed
    result store (killed servers requeue and resume incrementally —
    artifacts stay byte-identical to a fresh serial run), and ``farm
    status`` / ``farm gc`` inspect the queue and reclaim stale store
    files.
``constants``
    Print the paper's analytical constants with numerical verification.

Examples::

    python -m repro.cli run --policy pg --model cioq --n 4 --load 1.3 \
        --values pareto --slots 50 --seed 3 --delays
    python -m repro.cli ratio --policy gm --n 3 --load 1.2 --slots 20
    python -m repro.cli sweep --policies gm,maxmatch --loads 0.8,1.0,1.2 \
        --seeds 4 --slots 30 --workers 4
    python -m repro.cli scenarios list
    python -m repro.cli scenarios run hotspot-incast --workers 4
    python -m repro.cli scenarios run smoke-bernoulli --replicates 32 \
        --ci 95 --workers 4
    python -m repro.cli stats summarize smoke-bernoulli --bootstrap 1000
    python -m repro.cli scenarios export qos-two-class --format toml
    python -m repro.cli figures --n 3
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

from .analysis.latency import occupancy_report
from .analysis.ratio import measure_cioq_ratio, measure_crossbar_ratio
from .analysis.report import format_table
from .core.params import GM_RATIO, cpg_optimal_ratio
from .scenarios import POLICY_CLASSES, RESULTS_DIR, ScenarioSpec
from .simulation.engine import run_cioq, run_crossbar
from .switch.cioq import CIOQSwitch
from .switch.config import SwitchConfig
from .switch.crossbar import CrossbarSwitch
from .switch.diagram import render_cioq, render_crossbar

# Policy classes come from the scenario subsystem's shared registry;
# the CLI annotates each with its proven ratio bound (None = no bound,
# or bound depends on runtime parameters and is filled in _make_policy).
_BOUNDS = {
    ("cioq", "gm"): GM_RATIO,
    ("cioq", "maxmatch"): GM_RATIO,
    ("cioq", "maxweight"): 6.0,
    ("crossbar", "cgu"): 3.0,
}
CIOQ_POLICIES = {
    name: (cls, _BOUNDS.get(("cioq", name)))
    for name, cls in POLICY_CLASSES["cioq"].items()
}
CROSSBAR_POLICIES = {
    name: (cls, _BOUNDS.get(("crossbar", name)))
    for name, cls in POLICY_CLASSES["crossbar"].items()
}
#: ``--traffic`` kinds: the spec params of each kind at offered load
#: ``--load`` (see ``TRAFFIC_KINDS`` in :mod:`repro.scenarios.spec`).
TRAFFIC_PARAMS = {
    "bernoulli": lambda load: {"load": load},
    "bursty": lambda load: {"burst_load": max(load, 0.1) * 2},
    "hotspot": lambda load: {"load": load, "hot_fraction": 0.6},
    "diagonal": lambda load: {"load": load},
    "appmix": lambda load: {"load_scale": load},
}
#: ``--values`` kinds: the spec params of each ``VALUE_KINDS`` entry.
VALUE_PARAMS = {
    "unit": {},
    "uniform": {"lo": 1, "hi": 100},
    "two-value": {"alpha": 10, "p_high": 0.25},
    "pareto": {"shape": 1.5},
}


def _cli_spec(args, load=None, **fields) -> ScenarioSpec:
    """The switch, ``--traffic``, ``--values`` and ``--load`` flags as a
    scenario spec; ``sweep`` adds its model, policies and seeds as
    ``fields``.  ``run``, ``ratio`` and ``trace record`` take only its
    config and traffic, which depend on neither.  Flags the spec or its
    traffic model refuses exit with one line."""
    load = args.load if load is None else load
    try:
        spec = ScenarioSpec(
            name="cli",
            switch={"n_in": args.n, "n_out": args.n, "speedup": args.speedup,
                    "b_in": args.b_in, "b_out": args.b_out,
                    "b_cross": args.b_cross},
            traffic=args.traffic,
            traffic_params=TRAFFIC_PARAMS[args.traffic](load),
            values=args.values,
            value_params=VALUE_PARAMS[args.values],
            slots=args.slots,
            **fields,
        )
        # A kind may refuse a load the parser accepts (appmix at 0).
        spec.build_traffic()
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return spec


def _build_traffic(args):
    return _cli_spec(args).build_traffic()


def _cli_trace(args):
    """The switch config and the ``--seed`` trace of ``run``/``ratio``."""
    spec = _cli_spec(args)
    return (spec.build_config(),
            spec.build_traffic().generate(args.slots, seed=args.seed))


@contextmanager
def _reading(path: str):
    """Exit with one line naming ``path`` when its content is malformed
    (not JSON, a missing field, a value out of range)."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        reason = (f"missing field {exc}" if isinstance(exc, KeyError)
                  else str(exc))
        # Stream readers already lead their messages with the path.
        raise SystemExit(f"{path}: {reason.removeprefix(f'{path}: ')}"
                         ) from None


def _make_policy(name: str, model: str, beta: Optional[float]):
    table = CIOQ_POLICIES if model == "cioq" else CROSSBAR_POLICIES
    if name not in table:
        raise SystemExit(
            f"unknown policy {name!r} for model {model}; choose from "
            f"{sorted(table)}"
        )
    factory, bound = table[name]
    if name == "pg":
        policy = factory() if beta is None else factory(beta=beta)
        from .core.params import pg_ratio

        bound = pg_ratio(policy.beta)
    elif name == "cpg":
        policy = factory()
        bound = cpg_optimal_ratio()
    else:
        policy = factory()
    return policy, bound


def _resolve_metrics_every(args) -> Optional[int]:
    """Map the ``--metrics``/``--metrics-every`` pair onto the executor
    contract: ``None`` = off, ``0`` = counters only, ``K >= 1`` = also
    sample the per-slot series every K slots."""
    if args.metrics_every is not None:
        if args.metrics_every < 1:
            raise SystemExit("--metrics-every must be >= 1")
        return args.metrics_every
    return 0 if args.metrics else None


def _stderr_progress(event) -> None:
    """Heartbeat printer for ``SweepExecutor`` progress events (stderr,
    so stdout tables and artifacts stay clean)."""
    kind = event.get("event")
    if kind == "cache":
        print(f"# cache scan: {event['hits']} hits, {event['misses']} "
              f"misses of {event['total']} points", file=sys.stderr)
    elif kind == "point":
        print(f"# point {event['index'] + 1}/{event['total']} "
              f"pid={event['pid']} {event['elapsed']:.3f}s",
              file=sys.stderr)


def _emit_metrics(metrics_out: Optional[str], snapshot, walltimes,
                  extra=None) -> None:
    """Write ``metrics.jsonl`` + ``timings.json`` into ``metrics_out``,
    or print the Prometheus rendering when no directory is given."""
    from .obs import (
        METRICS_FILENAME,
        TIMINGS_FILENAME,
        prometheus_text,
        write_jsonl,
        write_walltimes,
    )

    if snapshot is None:
        print("metrics: nothing recorded", file=sys.stderr)
        return
    if metrics_out is None:
        print(prometheus_text(snapshot), end="")
        return
    mpath = write_jsonl(os.path.join(metrics_out, METRICS_FILENAME),
                        snapshot)
    tpath = write_walltimes(os.path.join(metrics_out, TIMINGS_FILENAME),
                            walltimes, extra=extra)
    print(f"metrics: {mpath}  {tpath}")


def cmd_figures(args) -> int:
    config = SwitchConfig.square(args.n, b_in=3, b_out=3, b_cross=1)
    print(render_cioq(CIOQSwitch(config),
                      title=f"Figure 1: CIOQ switch, N = {args.n}"))
    print(render_crossbar(
        CrossbarSwitch(config),
        title=f"Figure 2: buffered crossbar switch, N = {args.n}"))
    return 0


def cmd_run(args) -> int:
    config, trace = _cli_trace(args)
    policy, _ = _make_policy(args.policy, args.model, args.beta)
    runner = run_cioq if args.model == "cioq" else run_crossbar
    rec = None
    if args.occupancy:
        from .obs import InMemoryRecorder

        rec = InMemoryRecorder(every_k=1)
    result = runner(policy, config, trace, record=args.delays, metrics=rec)
    print(format_table([result.summary()],
                       title=f"{policy.name} on {trace.name}"))
    if args.delays:
        stats = result.delay_stats(trace)
        print(format_table([stats], title="delivery delay (slots)"))
    if rec is not None:
        print(occupancy_report(rec.series))
    return 0


def cmd_ratio(args) -> int:
    config, trace = _cli_trace(args)
    policy, bound = _make_policy(args.policy, args.model, args.beta)
    measure = (measure_cioq_ratio if args.model == "cioq"
               else measure_crossbar_ratio)
    m = measure(policy, trace, config, bound=bound, opt_mode=args.opt_mode)
    qualifier = ("exact OPT" if m.is_exact
                 else f"certified OPT bracket ({m.opt_mode})")
    print(format_table([m.as_row()],
                       title=f"empirical competitive ratio vs {qualifier}"))
    return 0 if m.within_bound else 1


def cmd_sweep(args) -> int:
    from .parallel import SweepExecutor
    from .scenarios import run_scenarios

    # One spec per load.  Each policy entry is labelled with its bare
    # name (the table's column); --beta applies to pg alone.
    names = [p.strip() for p in args.policies.split(",") if p.strip()]
    beta = {} if args.beta is None else {"beta": args.beta}
    policies = tuple({"name": name, "label": name,
                      **(beta if name == "pg" else {})} for name in names)
    specs = [_cli_spec(args, load, model=args.model, policies=policies,
                       seeds=range(args.seeds), include_opt=args.opt)
             for load in args.loads]

    metrics_every = _resolve_metrics_every(args)
    ex = SweepExecutor(
        workers=args.workers, cache_dir=args.cache_dir,
        metrics_every=metrics_every,
        progress=_stderr_progress if metrics_every is not None else None,
    )
    runs = run_scenarios(specs, ex)

    # Benefits come from the payload values, not the 6-digit row copies.
    columns = names + (["OPT"] if args.opt else [])
    rows = []
    agg_rows = []
    for load, run in zip(args.loads, runs):
        benefit = {(m["seed"], m["policy"]): m["benefit"]
                   for m in run.metrics}
        cell = [{"load": round(load, 3), "seed": r["seed"],
                 "arrived": r["arrived"],
                 **{name: round(benefit[r["seed"], name], 3)
                    for name in columns}}
                for r in run.rows]
        rows.extend(cell)
        agg_rows.append({"load": round(load, 3), **{
            name: round(sum(r[name] for r in cell) / len(cell), 3)
            for name in columns}})
    n_points = sum(len(run.metrics) for run in runs)
    print(format_table(
        rows,
        title=f"sweep: {args.model} {args.n}x{args.n}, {args.slots} slots, "
              f"{n_points} points",
    ))
    print(format_table(agg_rows, title="per-load mean benefit"))
    if ex.cache_dir:
        print(f"cache: {ex.cache_hits} hits, {ex.cache_misses} misses "
              f"({ex.cache_dir})")
    if metrics_every is not None:
        total = sum(t["elapsed"] for t in ex.timings)
        _emit_metrics(args.metrics_out, ex.merged_obs(),
                      {"point_seconds_total": total},
                      extra={"points": ex.timings,
                             "cache_hits": ex.cache_hits,
                             "cache_misses": ex.cache_misses})
    return 0


def cmd_scenarios_list(args) -> int:
    from .scenarios import all_scenarios

    rows = []
    for spec in all_scenarios():
        rows.append({
            "name": spec.name,
            "model": spec.model,
            "traffic": spec.traffic,
            "policies": ",".join(spec.policy_labels()),
            "slots": spec.slots,
            "seeds": len(spec.seeds),
            "description": spec.description,
        })
    print(format_table(rows, title=f"{len(rows)} registered scenarios "
                                   "(see docs/scenarios.md)"))
    return 0


def _load_spec(args):
    from .scenarios import ScenarioSpec, get_scenario

    if getattr(args, "file", None):
        try:
            spec = ScenarioSpec.from_file(args.file)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"bad spec: {exc}") from None
        # Params the traffic model refuses, or a replay path that is not
        # a trace file, end here rather than mid-run.
        try:
            spec.check_traffic()
        except (OSError, TypeError, ValueError) as exc:
            raise SystemExit(f"bad spec: {args.file}: {exc}") from None
        return spec
    if not args.name:
        raise SystemExit("need a scenario name (or --file)")
    try:
        return get_scenario(args.name)
    except KeyError as exc:
        raise SystemExit(str(exc)) from None


@contextmanager
def _drawing(source: str):
    """Exit with one ``bad spec`` line naming ``source`` when a spec's
    models draw a trace that the trace check refuses."""
    from .scenarios import SpecError

    try:
        yield
    except SpecError as exc:
        raise SystemExit(f"bad spec: {source}: {exc}") from None


def cmd_scenarios_show(args) -> int:
    spec = _load_spec(args)
    print(f"# {spec.name}: {spec.description}")
    if spec.expected:
        print(f"# expected: {spec.expected}")
    print()
    print(spec.to_toml(), end="")
    return 0


def _parse_confidence(value: Optional[float]) -> Optional[float]:
    """``--ci`` accepts a percentage in [1, 100) (e.g. 95) or a
    fraction in (0, 1) (e.g. 0.95)."""
    if value is None:
        return None
    conf = float(value)
    if 1.0 <= conf < 100.0:
        return conf / 100.0
    if 0.0 < conf < 1.0:
        return conf
    raise SystemExit(
        f"--ci takes a percentage in [1, 100) or a fraction in (0, 1), "
        f"got {value}"
    )


def cmd_scenarios_run(args) -> int:
    from .scenarios import run_scenario, write_artifacts

    spec = _load_spec(args)
    try:
        seeds = None
        if args.seeds is not None:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        spec = spec.with_overrides(slots=args.slots, seeds=seeds)
        if args.slots is not None:
            # More slots can take a load past its arrival bound.
            spec.check_traffic()
    except ValueError as exc:
        raise SystemExit(f"bad override: {exc}") from None

    # The CLI owns the executor so it can surface cache statistics and
    # metrics regardless of which path (plain/replicated) consumes it.
    from .parallel import SweepExecutor

    metrics_every = _resolve_metrics_every(args)
    ex = SweepExecutor(
        workers=args.workers, cache_dir=args.cache_dir,
        metrics_every=metrics_every,
        progress=_stderr_progress if metrics_every is not None else None,
    )

    # A spec with a replicates block runs replicated by default; any
    # replication flag opts an ordinary spec in (and overrides blocks).
    replicated = bool(spec.replicates) or any(
        getattr(args, name) is not None
        for name in ("replicates", "ci", "bootstrap", "target_half_width",
                     "batch")
    )
    if replicated:
        if args.seeds is not None:
            # Replicate seeds are the plan's base_seed ladder; silently
            # discarding an explicit --seeds list would misreport what
            # ran.
            raise SystemExit(
                "--seeds cannot be combined with replication; the "
                "replicate ladder is base_seed .. base_seed+n-1 "
                "(set it in the spec's [replicates] block)"
            )
        from .stats import (
            ReplicationPlan,
            replicate_scenario,
            write_replicated_artifacts,
        )

        try:
            plan = ReplicationPlan.from_spec(
                spec,
                n=args.replicates,
                confidence=_parse_confidence(args.ci),
                bootstrap=args.bootstrap,
                target_half_width=args.target_half_width,
                batch=args.batch,
            )
        except ValueError as exc:
            raise SystemExit(f"bad replication plan: {exc}") from None
        with _drawing(args.file or spec.name):
            rrun = replicate_scenario(spec, plan=plan, executor=ex,
                                      opt_mode=args.opt_mode)
        print(rrun.tables())
        name = rrun.spec.name
        if not args.no_artifacts:
            paths = write_replicated_artifacts(rrun, args.out)
            print(f"artifacts: {'  '.join(paths)}")
    else:
        with _drawing(args.file or spec.name):
            run = run_scenario(spec, executor=ex, opt_mode=args.opt_mode)
        print(run.tables())
        name = run.spec.name
        if not args.no_artifacts:
            json_path, csv_path, toml_path = write_artifacts(run, args.out)
            print(f"artifacts: {json_path}  {csv_path}  {toml_path}")

    if ex.cache_dir:
        print(f"cache: {ex.cache_hits} hits, {ex.cache_misses} misses "
              f"({ex.cache_dir})")
    if metrics_every is not None:
        # Default the metric artifacts into the scenario's results dir
        # (next to result.json / manifest.json) unless redirected.
        metrics_out = args.metrics_out
        if metrics_out is None and not args.no_artifacts:
            metrics_out = os.path.join(args.out, name)
        total = sum(t["elapsed"] for t in ex.timings)
        _emit_metrics(metrics_out, ex.merged_obs(),
                      {"point_seconds_total": total},
                      extra={"points": ex.timings,
                             "cache_hits": ex.cache_hits,
                             "cache_misses": ex.cache_misses})
    return 0


def cmd_stats_summarize(args) -> int:
    import json as _json

    from .analysis.report import format_summary_table
    from .stats import load_artifact, summarize_artifact

    confidence = _parse_confidence(args.ci)
    with _reading(args.target):
        try:
            artifact = load_artifact(args.target, results_root=args.results)
        except FileNotFoundError as exc:
            raise SystemExit(str(exc)) from None
        rows = summarize_artifact(
            artifact,
            confidence=confidence,
            bootstrap=args.bootstrap,
            bootstrap_seed=args.bootstrap_seed,
        )
    if args.json:
        print(_json.dumps(rows, indent=2, sort_keys=True))
        return 0
    name = artifact.get("scenario", {}).get("name", args.target)
    print(format_summary_table(
        rows, title=f"summary of {name} ({len(artifact.get('rows', []))} "
                    f"seeds)"))
    return 0


def cmd_scenarios_export(args) -> int:
    spec = _load_spec(args)
    text = spec.to_json() + "\n" if args.format == "json" else spec.to_toml()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _need_trace_file(path: str) -> None:
    """Exit with one line unless ``path`` is a file."""
    if not os.path.isfile(path):
        raise SystemExit(f"no trace file at {path}")


def _need_output_dir(path: str) -> None:
    """Exit with one line unless the directory ``path`` goes in exists."""
    directory = os.path.dirname(path)
    if directory and not os.path.isdir(directory):
        raise SystemExit(f"no directory {directory}")


def cmd_trace_record(args) -> int:
    """Record a traffic model to a chunked stream file, O(chunk) memory."""
    from itertools import count, islice

    from .traffic.trace import write_stream

    _need_output_dir(args.output)
    model = _build_traffic(args)
    # Pids count up in arrival order across slots, as in ``generate``.
    pids = count()
    rows = ([[next(pids), value, t, src, dst]
             for src, dst, value in zip(srcs, dsts, values)]
            for t, (srcs, dsts, values) in enumerate(
                islice(model.slot_arrivals(args.seed), args.slots)))
    try:
        n_packets = write_stream(
            args.output, rows, model.n_in, model.n_out,
            name=f"{model.name}/{model.value_model.name}/seed{args.seed}",
            chunk_slots=args.chunk_slots)
    except ValueError as exc:
        raise SystemExit(f"trace record: {exc}") from None
    print(f"wrote {args.output}: {n_packets} packets over {args.slots} "
          f"slots ({model.n_in}x{model.n_out})")
    return 0


def cmd_trace_info(args) -> int:
    from .traffic.trace import read_stream_header

    _need_trace_file(args.path)
    with _reading(args.path):
        header = dict(read_stream_header(args.path))
    header["format"] = f"{header.pop('format')} v{header.pop('version')}"
    rows = [{"field": k, "value": v} for k, v in header.items()]
    print(format_table(rows, title=f"stream trace {args.path}"))
    return 0


def cmd_trace_replay(args) -> int:
    """Replay a recorded trace through the engine and emit its artifact.

    The default path streams the file through ``run_*_streaming`` at
    O(chunk) peak memory; ``--materialized`` loads the whole trace and
    runs the batch engine instead.  Both paths produce byte-identical
    artifacts (the CI memory smoke diffs them), and ``--rss-limit-mb``
    turns the memory bound into a hard failure via ``setrlimit``.
    """
    import json as _json

    from .simulation.engine import run_cioq_streaming, run_crossbar_streaming
    from .traffic.replay import TraceReplayTraffic
    from .traffic.trace import Trace, read_stream_header

    _need_trace_file(args.path)
    if args.output:
        _need_output_dir(args.output)
    if args.rss_limit_mb is not None:
        import resource

        limit = int(args.rss_limit_mb) * (1 << 20)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    metrics_every = _resolve_metrics_every(args)
    rec = None
    if metrics_every is not None:
        from .obs import InMemoryRecorder

        rec = InMemoryRecorder(every_k=metrics_every, timed=True)

    policy, _ = _make_policy(args.policy, args.model, args.beta)
    # The streaming path reads the file as it runs, so a bad packet can
    # surface mid-run.
    with _reading(args.path):
        header = read_stream_header(args.path)
        config = SwitchConfig(n_in=header["n_in"], n_out=header["n_out"],
                              speedup=args.speedup, b_in=args.b_in,
                              b_out=args.b_out, b_cross=args.b_cross)

        if args.materialized:
            trace = Trace.load(args.path)
            runner = run_cioq if args.model == "cioq" else run_crossbar
            result = runner(policy, config, trace, metrics=rec)
        else:
            replay = TraceReplayTraffic(args.path)
            runner = (run_cioq_streaming if args.model == "cioq"
                      else run_crossbar_streaming)
            result = runner(policy, config, replay.arrival_source(),
                            header["n_slots"], metrics=rec)

    artifact = _json.dumps(result.summary(), indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(artifact)
        mode = "materialized" if args.materialized else "streaming"
        print(f"wrote {args.output} ({mode})")
    else:
        print(artifact, end="")
    if rec is not None:
        _emit_metrics(args.metrics_out, rec.snapshot(), rec.walltimes())
    if args.report_rss:
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"peak RSS: {peak_kb / 1024:.1f} MiB", file=sys.stderr)
    return 0


def _metrics_stream_path(target: str) -> str:
    """Resolve an ``obs`` target: a results dir (containing
    ``metrics.jsonl``) or a direct path to a JSONL stream."""
    from .obs import METRICS_FILENAME

    if os.path.isdir(target):
        return os.path.join(target, METRICS_FILENAME)
    return target


def cmd_obs_export(args) -> int:
    """Render a written metrics stream as Prometheus exposition text."""
    from .obs import iter_jsonl, prometheus_text, snapshot_from_events

    path = _metrics_stream_path(args.target)
    try:
        with _reading(path):
            snap = snapshot_from_events(iter_jsonl(path))
    except FileNotFoundError:
        raise SystemExit(
            f"no metrics stream at {path} (produce one with --metrics, "
            f"e.g. `repro scenarios run <name> --metrics`)") from None
    text = prometheus_text(snap)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_obs_tail(args) -> int:
    """Print the last N events of a metrics stream (JSONL, one per
    line), optionally filtered by event type."""
    import json as _json
    from collections import deque

    path = _metrics_stream_path(args.target)
    from .obs import iter_jsonl

    try:
        with _reading(path):
            events = iter_jsonl(path)
            if args.event:
                events = (e for e in events if e.get("event") == args.event)
            last = deque(events, maxlen=max(0, args.lines))
    except FileNotFoundError:
        raise SystemExit(
            f"no metrics stream at {path} (produce one with --metrics)"
        ) from None
    for ev in last:
        print(_json.dumps(ev, sort_keys=True, separators=(",", ":")))
    return 0


def cmd_submit(args) -> int:
    """Enqueue scenario jobs for a running (or future) farm server;
    every job is resolved first, so none is queued if one cannot run."""
    from .farm import JobQueue, build_job, resolve_job

    try:
        seeds = None
        if args.seeds is not None:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        jobs = [build_job(scenario=name, slots=args.slots, seeds=seeds,
                          replicates=args.replicates, opt_mode=args.opt_mode)
                for name in args.scenarios]
        for job in jobs:
            resolve_job(job)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"bad job: {exc.args[0]}") from None
    queue = JobQueue(args.queue)
    for job in jobs:
        print(f"submitted {queue.submit(job)}: {job['scenario']}")
    print(f"queue depth: {queue.depth()} ({args.queue})")
    return 0


def cmd_serve(args) -> int:
    """Run the experiment-farm serve loop until the queue drains."""
    from .farm import serve
    from .parallel import SweepKilled

    metrics_every = _resolve_metrics_every(args)
    recorder = None
    if metrics_every is not None:
        from .obs import InMemoryRecorder

        recorder = InMemoryRecorder(every_k=metrics_every, timed=True)

    def progress(line: str) -> None:
        print(f"# {line}", file=sys.stderr)

    try:
        summary = serve(
            args.queue,
            out_dir=args.out,
            cache_dir=args.cache_dir,
            workers=args.workers,
            max_jobs=args.max_jobs,
            idle_timeout=args.idle_timeout,
            metrics=recorder,
            progress=progress,
        )
    except SweepKilled as exc:
        # Fault injection: exit distinctly; the killed job stays in
        # running/ and the next server requeues it.
        print(f"killed: {exc}", file=sys.stderr)
        return 3
    print(f"served {summary['served']} job(s), "
          f"{summary['failed']} failed; store: "
          f"{summary['store_hits']} hits, "
          f"{summary['store_misses']} executed")
    if recorder is not None:
        total = sum(t["elapsed"] for t in summary["timings"])
        _emit_metrics(args.metrics_out, recorder.snapshot(),
                      recorder.walltimes(),
                      extra={"points": summary["timings"],
                             "worker_busy_seconds": total})
    return 0 if summary["failed"] == 0 else 1


def cmd_farm_status(args) -> int:
    """Print queue counts, per-job state, and store statistics."""
    from .farm import farm_status

    try:
        status = farm_status(args.queue, cache_dir=args.cache_dir)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc)) from None
    counts = status["counts"]
    print(format_table(
        [{"state": state, "jobs": n} for state, n in counts.items()],
        title=f"farm queue ({args.queue})",
    ))
    if status["jobs"]:
        print(format_table(status["jobs"], title="jobs"))
    store = status.get("store")
    if store is not None:
        print(format_table(
            [{"measure": k, "value": v} for k, v in store.items()],
            title=f"result store ({args.cache_dir})",
        ))
    return 0


def cmd_farm_gc(args) -> int:
    """Garbage-collect the result store (stale versions, torn files,
    dead claims)."""
    from .farm import ResultStore
    from .parallel import CACHE_VERSION

    store = ResultStore(args.cache_dir, CACHE_VERSION)
    removed = store.gc()
    print(format_table(
        [{"bucket": k, "files": v} for k, v in removed.items()],
        title=f"store gc ({args.cache_dir})",
    ))
    return 0


def cmd_constants(args) -> int:
    from .theory.ratios import verify_paper_constants

    report = verify_paper_constants()
    rows = [{"constant": k, "value": v} for k, v in report.items()]
    print(format_table(rows, title="paper constants (Theorems 2 and 4)"))
    ok = report["pg_consistent"] and report["cpg_consistent"]
    return 0 if ok else 1


def _add_metrics(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metrics", action="store_true",
                   help="collect deterministic run metrics (counters; "
                        "byte-identical for any worker count)")
    p.add_argument("--metrics-every", type=int, default=None,
                   dest="metrics_every", metavar="K",
                   help="also sample the per-slot series every K slots "
                        "(implies --metrics)")
    p.add_argument("--metrics-out", default=None, dest="metrics_out",
                   metavar="DIR",
                   help="directory for metrics.jsonl + timings.json "
                        "(default: the results dir when one is written, "
                        "else Prometheus text on stdout)")


def _add_opt_mode(p: argparse.ArgumentParser) -> None:
    from .offline.opt import OPT_MODES

    p.add_argument("--opt-mode", choices=OPT_MODES, default="exact",
                   dest="opt_mode",
                   help="offline OPT solver: exact MILP, near-linear "
                        "certified bounds bracket, or auto-selection by "
                        "model size (docs/offline_opt.md)")


def _non_negative(text: str) -> int:
    """Type of ``--seed`` (numpy's generators refuse negative seeds) and
    ``stats summarize --bootstrap``."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """Type of port counts, speedup, buffer sizes and slot counts."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return int(text)


def _load(text: str) -> float:
    """Type of ``--load``: an offered load is a finite number >= 0."""
    try:
        load = float(text)
    except ValueError:
        load = -1.0  # reported below, like any negative load
    if not 0.0 <= load < float("inf"):  # also rejects nan
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}")
    return load


def _loads(text: str) -> List[float]:
    """Type of ``sweep --loads``: comma-separated ``--load`` values."""
    return [_load(item) for item in text.split(",") if item.strip()]


def _beta(text: str) -> float:
    """``--beta`` type: PG's preemption threshold is at least 1."""
    try:
        beta = float(text)
    except ValueError:
        beta = 0.0  # reported below, like any value under 1
    if not beta >= 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError(
            f"must be a number >= 1, got {text!r}")
    return beta


def _add_switch(p: argparse.ArgumentParser) -> None:
    p.add_argument("--speedup", type=_positive, default=1)
    p.add_argument("--b-in", type=_positive, default=4, dest="b_in")
    p.add_argument("--b-out", type=_positive, default=4, dest="b_out")
    p.add_argument("--b-cross", type=_positive, default=1, dest="b_cross")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("cioq", "crossbar"), default="cioq")
    p.add_argument("--n", type=_positive, default=4, help="ports per side")
    _add_switch(p)
    p.add_argument("--traffic", choices=tuple(TRAFFIC_PARAMS),
                   default="bernoulli")
    p.add_argument("--values", choices=sorted(VALUE_PARAMS), default="unit")
    p.add_argument("--load", type=_load, default=1.0)
    p.add_argument("--slots", type=_positive, default=40)
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--beta", type=_beta, default=None,
                   help="preemption threshold (pg only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Online packet scheduling for CIOQ and buffered "
                    "crossbar switches (SPAA 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="print Figure 1 / Figure 2")
    p_fig.add_argument("--n", type=_positive, default=3)
    p_fig.set_defaults(func=cmd_figures)

    p_run = sub.add_parser("run", help="simulate a policy")
    _add_common(p_run)
    p_run.add_argument("--policy", default="gm")
    p_run.add_argument("--delays", action="store_true",
                       help="report delivery-delay statistics")
    p_run.add_argument("--occupancy", action="store_true",
                       help="print an occupancy sparkline")
    p_run.set_defaults(func=cmd_run)

    p_ratio = sub.add_parser("ratio", help="measure ratio vs offline OPT")
    _add_common(p_ratio)
    p_ratio.add_argument("--policy", default="gm")
    _add_opt_mode(p_ratio)
    p_ratio.set_defaults(func=cmd_ratio)

    p_sweep = sub.add_parser(
        "sweep",
        help="grid sweep over loads and seeds (parallel with --workers)",
    )
    _add_common(p_sweep)
    p_sweep.add_argument("--policies", default="gm",
                         help="comma-separated policy names")
    p_sweep.add_argument("--loads", type=_loads, default="0.8,1.0,1.2",
                         help="comma-separated offered loads")
    p_sweep.add_argument("--seeds", type=_positive, default=3,
                         help="number of seeds (0..N-1) per cell")
    p_sweep.add_argument("--workers", type=int, default=0,
                         help="worker processes (<=1: serial)")
    p_sweep.add_argument("--cache-dir", default=None, dest="cache_dir",
                         help="on-disk result cache directory")
    p_sweep.add_argument("--opt", action="store_true",
                         help="include the exact-OPT column")
    _add_metrics(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_scen = sub.add_parser(
        "scenarios",
        help="declarative experiments: list|show|run|export "
             "(docs/scenarios.md)",
    )
    scen_sub = p_scen.add_subparsers(dest="scenarios_command", required=True)

    s_list = scen_sub.add_parser("list", help="list registered scenarios")
    s_list.set_defaults(func=cmd_scenarios_list)

    s_show = scen_sub.add_parser("show", help="print one scenario spec")
    s_show.add_argument("name", nargs="?", help="registered scenario name")
    s_show.add_argument("--file", default=None,
                        help="read the spec from a TOML/JSON file instead")
    s_show.set_defaults(func=cmd_scenarios_show)

    s_run = scen_sub.add_parser(
        "run", help="run a scenario and write results/<name>/ artifacts"
    )
    s_run.add_argument("name", nargs="?", help="registered scenario name")
    s_run.add_argument("--file", default=None,
                       help="run a spec from a TOML/JSON file instead")
    s_run.add_argument("--workers", type=int, default=0,
                       help="worker processes (<=1: serial; results are "
                            "bit-identical either way)")
    s_run.add_argument("--cache-dir", default=None, dest="cache_dir",
                       help="on-disk sweep-point cache directory")
    s_run.add_argument("--slots", type=int, default=None,
                       help="override the spec's arrival-slot count")
    s_run.add_argument("--seeds", default=None,
                       help="override the spec's seeds (comma-separated)")
    s_run.add_argument("--out", default=RESULTS_DIR,
                       help=f"artifact root directory (default: "
                            f"{RESULTS_DIR}/)")
    s_run.add_argument("--no-artifacts", action="store_true",
                       help="print tables only, write nothing")
    s_run.add_argument("--replicates", type=int, default=None,
                       help="run N replicate seeds and report mean/std/CI "
                            "summaries (docs/statistics.md)")
    s_run.add_argument("--ci", type=float, default=None,
                       help="confidence level for summaries, e.g. 95")
    s_run.add_argument("--bootstrap", type=int, default=None,
                       help="percentile-bootstrap resamples (0 = off)")
    s_run.add_argument("--target-half-width", type=float, default=None,
                       dest="target_half_width",
                       help="stop early once every policy's CI half-width "
                            "for the target metric is at most this")
    s_run.add_argument("--batch", type=int, default=None,
                       help="seeds per early-stopping batch")
    s_run.add_argument("--backend", choices=["auto"], default="auto",
                       help="accepted for compatibility and ignored: the "
                            "engine picks the kernel (docs/backends.md)")
    _add_opt_mode(s_run)
    _add_metrics(s_run)
    s_run.set_defaults(func=cmd_scenarios_run)

    s_export = scen_sub.add_parser(
        "export", help="emit a scenario spec as TOML or JSON"
    )
    s_export.add_argument("name", nargs="?", help="registered scenario name")
    s_export.add_argument("--file", default=None,
                          help="re-export a spec file (format conversion)")
    s_export.add_argument("--format", choices=("toml", "json"),
                          default="toml")
    s_export.add_argument("-o", "--output", default=None,
                          help="write to a file instead of stdout")
    s_export.set_defaults(func=cmd_scenarios_export)

    p_stats = sub.add_parser(
        "stats",
        help="statistics over result artifacts (docs/statistics.md)",
    )
    stats_sub = p_stats.add_subparsers(dest="stats_command", required=True)
    st_sum = stats_sub.add_parser(
        "summarize",
        help="mean/std/CI summary of a written results/<name>/ artifact",
    )
    st_sum.add_argument("target",
                        help="scenario name under --results, a results "
                             "directory, or a result.json path")
    st_sum.add_argument("--results", default=RESULTS_DIR,
                        help=f"artifact root (default: {RESULTS_DIR}/)")
    st_sum.add_argument("--ci", type=float, default=None,
                        help="confidence level, e.g. 95 (default: the "
                             "artifact's replicates block, else 95)")
    st_sum.add_argument("--bootstrap", type=_non_negative, default=None,
                        help="percentile-bootstrap resamples (0 = off)")
    st_sum.add_argument("--bootstrap-seed", type=int, default=None,
                        dest="bootstrap_seed",
                        help="bootstrap RNG seed (default: artifact block)")
    st_sum.add_argument("--json", action="store_true",
                        help="emit summary rows as JSON instead of a table")
    st_sum.set_defaults(func=cmd_stats_summarize)

    p_trace = sub.add_parser(
        "trace",
        help="recorded traces: record|info|replay (streaming, O(chunk) "
             "memory; docs/traffic_models.md)",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    t_rec = trace_sub.add_parser(
        "record",
        help="record a traffic model to a chunked stream file",
    )
    _add_common(t_rec)
    t_rec.add_argument("output", help="stream file to write (JSONL)")
    t_rec.add_argument("--chunk-slots", type=int, default=4096,
                       dest="chunk_slots",
                       help="arrival slots per stream chunk line")
    t_rec.set_defaults(func=cmd_trace_record)

    t_info = trace_sub.add_parser(
        "info", help="print a recorded trace's header"
    )
    t_info.add_argument("path", help="trace file")
    t_info.set_defaults(func=cmd_trace_info)

    t_rep = trace_sub.add_parser(
        "replay",
        help="replay a recorded trace through the engine "
             "(streaming by default)",
    )
    t_rep.add_argument("path", help="trace file")
    t_rep.add_argument("--model", choices=("cioq", "crossbar"),
                       default="cioq")
    t_rep.add_argument("--policy", default="gm")
    t_rep.add_argument("--beta", type=_beta, default=None,
                       help="preemption threshold (pg only)")
    _add_switch(t_rep)
    t_rep.add_argument("--materialized", action="store_true",
                       help="load the full trace and run the batch "
                            "engine (the control path)")
    t_rep.add_argument("--rss-limit-mb", type=int, default=None,
                       dest="rss_limit_mb",
                       help="hard address-space ceiling in MiB "
                            "(setrlimit; exceeding it kills the run)")
    t_rep.add_argument("--report-rss", action="store_true",
                       dest="report_rss",
                       help="print peak RSS to stderr after the run")
    t_rep.add_argument("-o", "--output", default=None,
                       help="write the result artifact to a file")
    _add_metrics(t_rep)
    t_rep.set_defaults(func=cmd_trace_replay)

    p_obs = sub.add_parser(
        "obs",
        help="observability: export|tail a written metrics stream "
             "(docs/observability.md)",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    o_exp = obs_sub.add_parser(
        "export",
        help="render a metrics.jsonl stream as Prometheus text",
    )
    o_exp.add_argument("target",
                       help="results/<name>/ directory or a metrics.jsonl "
                            "path")
    o_exp.add_argument("-o", "--output", default=None,
                       help="write to a file instead of stdout")
    o_exp.set_defaults(func=cmd_obs_export)

    o_tail = obs_sub.add_parser(
        "tail", help="print the last events of a metrics stream"
    )
    o_tail.add_argument("target",
                        help="results/<name>/ directory or a metrics.jsonl "
                             "path")
    o_tail.add_argument("-n", "--lines", type=int, default=10,
                        help="number of trailing events to print")
    o_tail.add_argument("--event", default=None,
                        choices=("meta", "counter", "gauge", "sample"),
                        help="only events of this type")
    o_tail.set_defaults(func=cmd_obs_tail)

    p_submit = sub.add_parser(
        "submit",
        help="enqueue scenario jobs for the experiment farm",
        description="Enqueue one job per named scenario on a farm job "
                    "queue (see docs/parallel.md); a repro serve loop "
                    "pointed at the same --queue executes them.",
    )
    p_submit.add_argument("scenarios", nargs="+",
                          help="registered scenario name(s)")
    p_submit.add_argument("--queue", default="farm",
                          help="job-queue root directory (default: farm)")
    p_submit.add_argument("--slots", type=int, default=None,
                          help="override the spec's horizon")
    p_submit.add_argument("--seeds", default=None,
                          help="comma-separated seed list override")
    p_submit.add_argument("--replicates", type=int, default=None,
                          metavar="N", help="replicate across N seeds")
    _add_opt_mode(p_submit)
    p_submit.set_defaults(func=cmd_submit)

    p_serve = sub.add_parser(
        "serve",
        help="run the experiment-farm serve loop",
        description="Drain a farm job queue through one persistent "
                    "worker pool and shared result store; killed "
                    "servers resume incrementally (docs/parallel.md).",
    )
    p_serve.add_argument("--queue", default="farm",
                         help="job-queue root directory (default: farm)")
    p_serve.add_argument("--out", default="results",
                         help="artifact directory (default: results)")
    p_serve.add_argument("--cache-dir", default=None, dest="cache_dir",
                         help="result-store root shared across jobs "
                              "(enables incremental resume)")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="worker processes (persistent pool; "
                              "<=1 runs in-process)")
    p_serve.add_argument("--max-jobs", type=int, default=None,
                         dest="max_jobs",
                         help="stop after this many jobs (default: "
                              "serve until idle/forever)")
    p_serve.add_argument("--idle-timeout", type=float, default=None,
                         dest="idle_timeout", metavar="SECONDS",
                         help="exit after the queue stays empty this "
                              "long (default: wait forever)")
    _add_metrics(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_farm = sub.add_parser(
        "farm",
        help="experiment-farm introspection and maintenance",
    )
    farm_sub = p_farm.add_subparsers(dest="farm_cmd", required=True)
    f_status = farm_sub.add_parser(
        "status", help="queue counts, job states, store statistics")
    f_status.add_argument("--queue", default="farm",
                          help="job-queue root directory (default: farm)")
    f_status.add_argument("--cache-dir", default=None, dest="cache_dir",
                          help="also report result-store statistics")
    f_status.set_defaults(func=cmd_farm_status)
    f_gc = farm_sub.add_parser(
        "gc", help="reclaim stale/torn store files and dead claims")
    f_gc.add_argument("--cache-dir", required=True, dest="cache_dir",
                      help="result-store root to collect")
    f_gc.set_defaults(func=cmd_farm_gc)

    p_const = sub.add_parser("constants", help="verify paper constants")
    p_const.set_defaults(func=cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
