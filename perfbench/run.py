"""Repository benchmark: cold ``repro scenarios run`` processes, timed
from outside the program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload large-n --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --write-golden

Each workload is a list of ``python -m repro.cli scenarios run`` jobs, one
cold process each, run one at a time with ``--workers 0``.  A run repeats
the jobs in seeded rounds until ``--seconds`` of job wall time have been
measured and every job ran; a *pass* (every job once) is costed as the
sum of each job's median wall.  Every job's artifacts are checked against
the sha256 digests committed in ``perfbench/golden.json``.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
of seven cold ``repro scenarios show`` probes spread across the run; one
untimed warm-up at smoke size runs first so byte-compilation never lands
in a sample.  ``--trace 1`` runs each job untraced and then traced
(``perfbench/tracer.py`` wraps each layer's public functions in spans)
and reports per-layer metrics for one pass.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPECS = BENCH / "specs"
GOLDEN = BENCH / "golden.json"
TRACER = BENCH / "tracer.py"
#: Scratch space for run directories (fresh per run, removed after);
#: inside the checkout, ignored by git.
WORK = ROOT / ".perfbench-work"

#: Cold ``scenarios show`` probes per run; setup_s is their median.
PROBES = 7
#: Hard limit on one benchmark run, under the 180 s the caller allows.
RUN_LIMIT_S = 170.0
#: The traced run fails when more than this share of its wall time is
#: outside every named layer.
MAX_UNATTRIBUTED = 0.05
ARTIFACTS = ("result.json", "summary.json")


# -- workloads -----------------------------------------------------------------

@dataclass
class Job:
    """One cold ``repro.cli`` process; ``name`` is its artifact dir."""

    name: str
    argv: List[str]
    #: Expected ``cache: H hits, M misses`` line, when the job uses a store.
    cache: Optional[tuple] = None


@dataclass
class Workload:
    name: str
    #: Per size ("full", "smoke"), the jobs of one pass.
    jobs: Dict[str, List[Job]]
    #: Spec arguments for ``scenarios show`` set-up probes.
    probes: List[List[str]]
    #: Per size, the replicate ladder length of ``replicate-resume.toml``;
    #: a seeded half of it is pre-filled (untimed) into a template store
    #: that every job starts from a copy of.  Empty: no store.
    prefill: Dict[str, int] = field(default_factory=dict)


def _run(spec_args: List[str], *extra: str) -> List[str]:
    return ["scenarios", "run", *spec_args, "--workers", "0",
            "--out", "{out}", *extra]


def _spec(name: str) -> List[str]:
    return ["--file", str(SPECS / f"{name}.toml")]


def workloads(catalog: Optional[List[str]] = None) -> Dict[str, Workload]:
    """The benchmark's workloads; the catalog defaults to the scenarios
    recorded in ``golden.json``, so it stays fixed as the registry grows."""
    names = catalog or sorted(json.loads(GOLDEN.read_text())["catalog"]["full"])
    large = ("large-n-cioq", "large-n-crossbar")
    rr = _spec("replicate-resume")
    return {
        # Every builtin scenario as shipped: default backend, exact OPT.
        "catalog": Workload(
            "catalog",
            jobs={"full": [Job(n, _run([n])) for n in names],
                  "smoke": [Job("replicated-smoke",
                                _run(["replicated-smoke"]))]},
            probes=[[n] for n in names],
        ),
        # 64-port traffic generation and the vectorized kernel; no OPT.
        "large-n": Workload(
            "large-n",
            jobs={"full": [Job(n, _run(_spec(n), "--backend", "auto"))
                           for n in large],
                  "smoke": [Job(large[0], _run(_spec(large[0]), "--backend",
                                               "auto", "--slots", "20",
                                               "--seeds", "0"))]},
            probes=[_spec(n) for n in large],
        ),
        # Half the ladder from the store, half computed per point.
        "replicate-resume": Workload(
            "replicate-resume",
            jobs={"full": [Job("replicate-resume",
                               _run(rr, "--cache-dir", "{cache}"),
                               cache=(1000, 1000))],
                  "smoke": [Job("replicate-resume",
                                _run(rr, "--cache-dir", "{cache}",
                                     "--replicates", "20"),
                                cache=(20, 20))]},
            probes=[rr],
            prefill={"full": 1000, "smoke": 20},
        ),
    }


def without_table(toml_text: str, table: str) -> str:
    """``toml_text`` minus the ``[table]`` section."""
    out, skip = [], False
    for line in toml_text.splitlines(keepends=True):
        if line.startswith("["):
            skip = line.strip() == f"[{table}]"
        if not skip:
            out.append(line)
    return "".join(out)


# -- child processes -------------------------------------------------------------

@dataclass
class Proc:
    ok: bool
    wall: float
    rss_mib: float
    spawn: float
    reap: float
    stdout: str


class Runner:
    """Spawns ``repro.cli`` children one at a time under a run deadline."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "NUMEXPR_NUM_THREADS": "1",
        })

    def cli(self, args: List[str], cwd: Path, traced: Optional[Path] = None
            ) -> Proc:
        head = ([str(TRACER), str(traced), "--"] if traced is not None
                else ["-m", "repro.cli"])
        argv = [sys.executable, *head, *args]
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError("benchmark run exceeded its time limit")
        out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            spawn = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                reap = time.perf_counter()
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        stdout = out_path.read_text()
        if proc.returncode != 0:
            sys.stderr.write(f"FAILED ({proc.returncode}): {' '.join(args)}\n"
                             + err_path.read_text()[-2000:])
        return Proc(proc.returncode == 0, reap - spawn, usage.ru_maxrss / 1024,
                    spawn, reap, stdout)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests(out: Path, job: Job) -> Dict[str, str]:
    target = out / job.name
    return {f: digest(target / f) for f in ARTIFACTS if (target / f).exists()}


def cache_line(stdout: str) -> Optional[tuple]:
    for line in stdout.splitlines():
        if line.startswith("cache: "):
            words = line.split()
            return int(words[1]), int(words[3])
    return None


def check_job(proc: Proc, out: Path, job: Job, golden: Dict) -> bool:
    """A job fails on a non-zero exit, a missing artifact, a digest that
    differs from the committed golden one, or an unexpected store
    hit/miss split."""
    if not proc.ok:
        return False
    want = golden.get(job.name)
    if want is None or artifact_digests(out, job) != want["files"]:
        sys.stderr.write(f"artifact mismatch: {job.name}\n")
        return False
    if job.cache is not None and cache_line(proc.stdout) != job.cache:
        sys.stderr.write(f"unexpected store split: {job.name}: "
                         f"{cache_line(proc.stdout)} != {job.cache}\n")
        return False
    return True


# -- job samples -------------------------------------------------------------------

@dataclass
class Sample:
    """One execution of a job."""

    proc: Proc
    ok: bool
    artifact_bytes: int = 0
    #: Traced samples: :func:`layer_times` of the process.
    layers: Optional[Dict[str, float]] = None


class Bench:
    def __init__(self, workload: Workload, size: str, seed: int,
                 runner: Runner, golden: Optional[Dict] = None):
        self.w = workload
        self.size = size
        self.rng = random.Random(seed)
        self.runner = runner
        self.golden = (golden if golden is not None else
                       json.loads(GOLDEN.read_text())[workload.name][size])
        self.jobs = list(workload.jobs[size])
        self.template = self._prefill() if workload.prefill else None

    def _prefill(self) -> Path:
        """Untimed: fill a template store with a seeded half of the
        replicate ladder, through the CLI on the same spec minus its
        replicates block (so the store keys match)."""
        n = self.w.prefill[self.size]
        seeds = sorted(self.rng.sample(range(n), n // 2))
        spec_path = SPECS / "replicate-resume.toml"
        work = Path(tempfile.mkdtemp(prefix="prefill-",
                                     dir=self.runner.run_dir))
        flat = work / "prefill.toml"
        flat.write_text(without_table(spec_path.read_text(), "replicates"))
        store = work / "store"
        proc = self.runner.cli(
            ["scenarios", "run", "--file", str(flat), "--workers", "0",
             "--no-artifacts", "--cache-dir", str(store),
             "--seeds", ",".join(map(str, seeds))],
            cwd=work)
        if not proc.ok:
            raise RuntimeError("store pre-fill failed")
        return store

    def cycle(self):
        """The jobs over and over, in a fresh seeded order each round, so
        runs differ between seeds while every artifact keeps its golden
        digest."""
        while True:
            yield from self.rng.sample(self.jobs, len(self.jobs))

    def run_job(self, job: Job, traced: bool = False,
                record: Optional[Dict] = None) -> Sample:
        """Run ``job`` once in a fresh directory, with a fresh copy of the
        pre-filled store.  With ``record``, its artifact digests and point
        count are recorded there before the check."""
        job_dir = Path(tempfile.mkdtemp(dir=self.runner.run_dir))
        try:
            out, cache = job_dir / "out", job_dir / "cache"
            if self.template is not None:
                shutil.copytree(self.template, cache)
            args = [a.format(out=out, cache=cache) for a in job.argv]
            spans = job_dir / "spans.json" if traced else None
            proc = self.runner.cli(args, cwd=job_dir, traced=spans)
            if record is not None and proc.ok:
                result = json.loads((out / job.name / "result.json")
                                    .read_text())
                record[job.name] = {"files": artifact_digests(out, job),
                                    "points": len(result["metrics"])}
            sample = Sample(proc, check_job(proc, out, job, self.golden))
            if sample.ok:
                sample.artifact_bytes = sum(
                    f.stat().st_size for f in (out / job.name).iterdir())
                if traced:
                    sample.layers = layer_times(proc, spans)
            return sample
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)

    def probe(self, index: int) -> Proc:
        spec = self.w.probes[index % len(self.w.probes)]
        return self.runner.cli(["scenarios", "show", *spec],
                               cwd=self.runner.run_dir)


# -- traced-run layer accounting ----------------------------------------------------

def layer_times(proc: Proc, spans_path: Path) -> Dict[str, float]:
    """Per-process seconds by layer, plus the wall it was measured in.

    Self time is a span's duration minus its children's.  The process
    wall runs from spawn to reap, less the tracer's post-run bracket
    check.  ``cli.startup`` is interpreter start up to the tracer's first
    line and ``cli.exit`` the interpreter teardown after the spans file
    is written.  Every span names a layer, so the wall outside all spans,
    startup and teardown is unattributed.
    """
    record = json.loads(spans_path.read_text())
    end = float(Path(str(spans_path) + ".end").read_text())
    spans = record["spans"]
    child = defaultdict(float)
    for sid, name, start, stop, parent, _ in spans:
        if parent is not None:
            child[parent] += stop - start
    out: Dict[str, float] = defaultdict(float)
    for sid, name, start, stop, parent, _ in spans:
        out[f"{name}.self"] += stop - start - child[sid]
        out[f"{name}.total"] += stop - start
    out["cli.startup.self"] = record["t_start"] - proc.spawn
    out["cli.exit.self"] = proc.reap - end
    out["wall"] = proc.wall - record["post_s"]
    out["unattributed"] = out["wall"] - sum(
        v for k, v in out.items() if k.endswith(".self"))
    for name, value in record["counts"].items():
        out[name] += value
    return out


def per_layer_metrics(traced: Dict[str, List[Sample]],
                      plain: Dict[str, List[Sample]]) -> Dict[str, tuple]:
    """Per-layer metrics for one pass over the jobs: each job contributes
    the mean over its traced samples (times in s)."""
    v: Dict[str, float] = defaultdict(float)
    for samples in traced.values():
        for s in samples:
            for key, value in s.layers.items():
                v[key] += value / len(samples)
            v["scenarios.artifact_bytes"] += s.artifact_bytes / len(samples)

    def rate(count: str, seconds: str) -> float:
        return v[count] / v[seconds] if v[seconds] > 0 else 0.0

    s = {
        "cli.import_s": v["cli.import.self"],
        "cli.startup_s": v["cli.startup.self"],
        "cli.exit_s": v["cli.exit.self"],
        "cli.parse_s": v["cli.parse.self"],
        "cli.report_s": v["cli.report.self"],
        "scenarios.spec_build_s": v["scenarios.spec_build.self"],
        "scenarios.run_self_s": v["scenarios.run.self"],
        "scenarios.artifacts_s": v["scenarios.artifacts.self"],
        "traffic.generate_s": v["traffic.generate.self"],
        "simulation.run_s": v["simulation.run.self"],
        "offline.solve_s": v["offline.solve.total"],
        "offline.build_s": v["offline.build.self"],
        "offline.milp_s": v["offline.milp.self"],
        "parallel.self_s": v["parallel.run.self"] + v["parallel.task.self"],
        "parallel.cache_key_s": v["parallel.cache_key.self"],
        "farm.get_s": v["farm.get.self"],
        "farm.put_s": v["farm.put.self"],
        "farm.claim_s": v["farm.claim.self"] + v["farm.release.self"],
        "stats.replicate_self_s": v["stats.replicate.self"],
        "stats.bootstrap_s": v["stats.bootstrap.self"],
        "obs.manifest_s": v["obs.manifest.self"],
        "trace.unattributed_s": v["unattributed"],
    }
    metrics = {k: (val, "s") for k, val in s.items()}
    counts = {
        "cli.scipy_at_import": "count", "scenarios.artifact_bytes": "B",
        "traffic.packets": "count", "simulation.slots": "count",
        "simulation.batched_points": "count", "offline.solves": "count",
        "offline.bracket_tight": "count", "farm.hits": "count",
        "farm.misses": "count", "farm.bytes_written": "B",
    }
    for name, unit in counts.items():
        metrics[name] = (v[name], unit)
    metrics["traffic.packets_per_s"] = (
        rate("traffic.packets", "traffic.generate.self"), "1/s")
    metrics["simulation.slots_per_s"] = (
        rate("simulation.slots", "simulation.run.self"), "1/s")
    traced_wall = sum(statistics.median(s.layers["wall"] for s in samples)
                      for samples in traced.values())
    plain_wall = sum(statistics.median(s.proc.wall for s in samples)
                     for samples in plain.values())
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1,
                                      "ratio")
    metrics["trace.unattributed_frac"] = (v["unattributed"] / v["wall"],
                                          "ratio")
    return metrics


# -- runs ------------------------------------------------------------------------------

def failures(samples) -> int:
    return sum(not s.ok for s in samples)


def measure(bench: Bench, seconds: float) -> tuple:
    """End-to-end run: jobs in seeded rounds until ``seconds`` of job wall
    time are measured and every job ran, with set-up probes spread
    evenly over that time."""
    samples: Dict[str, List[Sample]] = {job.name: [] for job in bench.jobs}
    probes: List[Proc] = []
    spacing = seconds / (PROBES - 1)
    measured = 0.0
    jobs = bench.cycle()
    while measured < seconds or not all(samples.values()):
        if len(probes) < PROBES and measured >= len(probes) * spacing:
            probes.append(bench.probe(len(probes)))
        job = next(jobs)
        samples[job.name].append(bench.run_job(job))
        measured += samples[job.name][-1].proc.wall
    while len(probes) < PROBES:
        probes.append(bench.probe(len(probes)))

    # A pass is every job once: the sum of each job's median wall.
    wall = sum(statistics.median(s.proc.wall for s in ss)
               for ss in samples.values())
    delivered = sum(bench.golden[name]["points"] * (1 - failures(ss) / len(ss))
                    for name, ss in samples.items())
    runs = [s for ss in samples.values() for s in ss]
    attempted = len(runs) + len(probes)
    failed = failures(runs) + sum(not p.ok for p in probes)
    metrics = {
        "setup_s": (statistics.median(p.wall for p in probes), "s"),
        "wall_s": (wall, "s"),
        "points_per_s": (delivered / wall, "1/s"),
        "peak_rss_mib": (max(s.proc.rss_mib for s in runs), "MiB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, attempted, failed


def measure_traced(bench: Bench, seconds: float) -> tuple:
    """Per-layer run: each job untraced then traced, in seeded rounds,
    until ``seconds`` of job wall time are measured and every job ran."""
    plain: Dict[str, List[Sample]] = {job.name: [] for job in bench.jobs}
    traced: Dict[str, List[Sample]] = {job.name: [] for job in bench.jobs}
    measured = 0.0
    jobs = bench.cycle()
    while measured < seconds or not all(traced.values()):
        job = next(jobs)
        for group, flag in ((plain, False), (traced, True)):
            group[job.name].append(bench.run_job(job, traced=flag))
            measured += group[job.name][-1].proc.wall
    runs = [s for group in (plain, traced) for ss in group.values()
            for s in ss]
    failed = failures(runs)
    metrics = per_layer_metrics(traced, plain) if not failed else {}
    return metrics, len(runs), failed


def write_golden() -> None:
    """Run one pass of every workload at both sizes and record its
    artifact digests and point counts as ``golden.json``.  The catalog is
    every scenario registered at the time of recording."""
    with run_directory() as run_dir:
        runner = Runner(run_dir)
        names = runner.cli(["scenarios", "list"], cwd=run_dir).stdout
        catalog = sorted(line.split()[0] for line in names.splitlines()[3:]
                         if line.strip())
    golden: Dict[str, Dict] = {}
    for name, w in workloads(catalog).items():
        golden[name] = {}
        for size in ("full", "smoke"):
            with run_directory() as run_dir:
                record: Dict[str, Dict] = {}
                bench = Bench(w, size, 0, Runner(run_dir), golden=record)
                for job in bench.jobs:
                    bench.run_job(job, record=record)
                golden[name][size] = record
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


@contextmanager
def run_directory():
    """A fresh run directory under :data:`WORK`, removed on exit."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    names = ("catalog", "large-n", "replicate-resume")
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help="re-record golden.json from one pass per workload")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        sys.stderr.write(f"no repro package under {ROOT / 'src'}; run from "
                         f"a full checkout\n")
        return 2
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        p.error("--workload is required")

    # A terminated run still stops its child and removes its directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = workloads()[args.workload]
    with run_directory() as run_dir:
        runner = Runner(run_dir)
        # Untimed warm-up at smoke size: byte-compiles every module the
        # workload imports, so no .pyc write lands in a timed sample.
        smoke = Bench(workload, "smoke", args.seed, runner)
        warm = [smoke.run_job(job) for job in smoke.jobs]
        bench = Bench(workload, "full", args.seed, runner)
        measure_run = measure_traced if args.trace else measure
        metrics, attempted, failed = measure_run(bench, args.seconds)
    attempted += len(warm)
    failed += failures(warm)
    correct = failed == 0
    if args.trace and correct:
        share = metrics["trace.unattributed_frac"][0]
        if share > MAX_UNATTRIBUTED:
            sys.stderr.write(f"traced run left {share:.1%} of wall time "
                             f"unattributed (limit {MAX_UNATTRIBUTED:.0%})\n")
            correct = False

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{attempted} operations, {failed} failed "
          f"(error_rate {failed / attempted:g})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
