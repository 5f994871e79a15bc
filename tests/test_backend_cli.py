"""The kernel contract at the CLI: whole ``repro`` runs, each kernel pinned.

Each test runs one command in-process twice — once with every trace and
batch run pinned to the reference kernel, once pinned to the fast kernel
(where any refusal fails the test) or left to the engine's own choice —
and compares the printed tables or the written artifact files byte for
byte.  ``tests/_kernels.py`` holds the pin.  The specs, sizes and seeds
are those of the workloads in ``perfbench/specs`` cut short, plus two
64-port class-valued specs whose values tie.
"""

import filecmp
from pathlib import Path

import pytest

from _kernels import pin_kernel
from repro.cli import main
from repro.simulation.backends import numpy_available

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the fast kernel requires numpy"
)

SPECS = Path(__file__).resolve().parent.parent / "perfbench" / "specs"


def _run(monkeypatch, capsys, kernel, argv):
    """``main(argv)`` with ``kernel`` pinned (``None``: the engine
    picks); returns what it printed."""
    with monkeypatch.context() as patch:
        if kernel is not None:
            pin_kernel(patch, kernel)
        assert main(argv) == 0
    return capsys.readouterr().out


def _scenario(monkeypatch, capsys, tmp_path, kernels, argv):
    """Run ``scenarios run argv`` once per kernel into its own artifact
    root; returns the roots."""
    roots = []
    for kernel in kernels:
        root = tmp_path / str(kernel)
        _run(monkeypatch, capsys, kernel,
             ["scenarios", "run", *argv, "--workers", "0",
              "--out", str(root)])
        roots.append(root)
    return roots


def _same_files(roots, name, files):
    a, b = (root / name for root in roots)
    for f in files:
        assert (a / f).read_bytes() == (b / f).read_bytes(), f"{name}/{f}"


def test_sweep_table(monkeypatch, capsys):
    argv = ["sweep", "--policies", "gm,pg", "--loads", "1.2", "--seeds", "2",
            "--slots", "20", "--n", "4"]
    ref = _run(monkeypatch, capsys, "reference", argv)
    assert "gm" in ref and "pg" in ref
    assert _run(monkeypatch, capsys, "fast", argv) == ref


def test_smoke_bernoulli(monkeypatch, capsys, tmp_path):
    roots = _scenario(monkeypatch, capsys, tmp_path, ("reference", "fast"),
                      ["smoke-bernoulli"])
    _same_files(roots, "smoke-bernoulli",
                ["result.json", "result.csv", "scenario.toml",
                 "manifest.json"])


def test_bursty_incast_replicated(monkeypatch, capsys, tmp_path):
    """16 replicate seeds on bursty-incast's 4 ports reach the crossover
    of 64 lanes x ports: the engine runs GM's seeds as one lockstep batch
    on the fast kernel, and the maxmatch, roundrobin and random columns,
    which that kernel refuses, on the reference one."""
    roots = _scenario(monkeypatch, capsys, tmp_path, ("reference", None),
                      ["bursty-incast", "--slots", "20", "--replicates",
                       "16"])
    _same_files(roots, "bursty-incast",
                ["result.json", "result.csv", "scenario.toml",
                 "summary.json", "summary.csv", "manifest.json"])


@pytest.mark.parametrize("spec", ["large-n-cioq", "large-n-crossbar"])
def test_large_n(spec, monkeypatch, capsys, tmp_path):
    """The 64-port specs over their whole seed ladder, cut short: the
    fast kernel's prep from trace columns and its array accounting
    against the reference kernel."""
    roots = _scenario(monkeypatch, capsys, tmp_path, ("reference", "fast"),
                      ["--file", str(SPECS / f"{spec}.toml"),
                       "--slots", "30"])
    _same_files(roots, spec, ["result.json", "result.csv"])


@pytest.mark.parametrize("spec", ["large-n-cioq", "large-n-crossbar"])
def test_large_n_metrics(spec, monkeypatch, capsys, tmp_path):
    """The same specs with metrics on.  Each point then runs alone, so
    this checks the fast kernel's single-lane series and counter flush
    against the reference kernel at 64 ports; that series is the
    engine's only per-slot record."""
    roots = _scenario(monkeypatch, capsys, tmp_path, ("reference", "fast"),
                      ["--file", str(SPECS / f"{spec}.toml"),
                       "--slots", "30", "--seeds", "0,1",
                       "--metrics-every", "5"])
    cmp = filecmp.dircmp(roots[0], roots[1],
                         ignore=["timings.json", "manifest.json"])
    _assert_same_tree(cmp)
    assert (roots[0] / spec / "result.json").exists()


def _assert_same_tree(cmp):
    assert not (cmp.left_only or cmp.right_only), (cmp.left_only,
                                                   cmp.right_only)
    for name in cmp.common_files:
        left = Path(cmp.left) / name
        assert left.read_bytes() == (Path(cmp.right) / name).read_bytes(), (
            str(left))
    for sub in cmp.subdirs.values():
        _assert_same_tree(sub)


TIES = """\
name = "ties-{model}"
model = "{model}"
traffic = "bursty"
values = "classes"
slots = 60
seeds = [0, 1]
include_opt = false
metrics = ["benefit", "n_sent", "n_rejected", "n_preempted", "n_residual"]
policies = [{policies}]

[switch]
n_in = 64
n_out = 64
{switch}
b_in = 4
b_out = 4

[traffic_params]
p_on = 0.3
p_off = 0.25
burst_load = 2.0
"""


@pytest.mark.parametrize("model, policies, switch", [
    ("cioq", '{name = "gm"}, {name = "pg"}', "speedup = 2"),
    ("crossbar", '{name = "cgu"}, {name = "cpg"}', "b_cross = 1"),
], ids=["cioq", "crossbar"])
def test_class_value_ties(model, policies, switch, monkeypatch, capsys,
                          tmp_path):
    """The same 64-port shapes with class values, which tie within and
    across lanes, so the fast kernel's packet ranks take the pid
    tie-break (PG and CPG still preempt)."""
    path = tmp_path / f"ties-{model}.toml"
    path.write_text(TIES.format(model=model, policies=policies,
                                switch=switch))
    roots = _scenario(monkeypatch, capsys, tmp_path, ("reference", "fast"),
                      ["--file", str(path)])
    _same_files(roots, f"ties-{model}", ["result.json"])


def test_replicate_resume_ladder(monkeypatch, capsys, tmp_path):
    """A replicate ladder on the fast kernel: each policy's 100 4x4 seeds
    run as one lockstep batch, and the bootstrap bounds in
    summary.json must not move."""
    roots = _scenario(monkeypatch, capsys, tmp_path, ("reference", "fast"),
                      ["--file", str(SPECS / "replicate-resume.toml"),
                       "--replicates", "100"])
    _same_files(roots, "replicate-resume", ["result.json", "summary.json"])


REPLAY = """\
name = "replay-file"
description = "A recorded bursty two-value trace, tiled."
model = "cioq"
traffic = "replay"
slots = 225
include_opt = false

[switch]
n_in = 4
n_out = 4

[traffic_params]
path = "{path}"
repeat = true

[[policies]]
name = "gm"

[[policies]]
name = "pg"
"""


def test_replay_scenario_over_recorded_file(monkeypatch, capsys, tmp_path):
    """A spec loads the recording once and tiles its 90-slot period 2.5
    times over every seed."""
    src = tmp_path / "replay-src.jsonl"
    assert main(["trace", "record", str(src), "--traffic", "bursty",
                 "--values", "two-value", "--n", "4", "--slots", "90",
                 "--seed", "3", "--chunk-slots", "7"]) == 0
    path = tmp_path / "replay-spec.toml"
    path.write_text(REPLAY.format(path=src.as_posix()))
    roots = _scenario(monkeypatch, capsys, tmp_path, ("reference", "fast"),
                      ["--file", str(path)])
    _same_files(roots, "replay-file", ["result.json", "result.csv"])
