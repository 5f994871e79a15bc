"""The reference backend must import and run without numpy.

This module is itself numpy-free, so the no-numpy CI job (bare Python
plus pytest) collects and runs it directly.  The tests below execute a
short script in a subprocess that *blocks* numpy before touching the
package — ``sys.modules["numpy"] = None`` makes every ``import numpy``
raise ImportError and ``importlib.util.find_spec("numpy")`` raise — so
they guard the numpy-free import chain even on machines that do have
numpy installed (i.e. everywhere, including the main CI matrix).
"""

import pathlib
import subprocess
import sys

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

BLOCKED_SCRIPT = r"""
import sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError

from repro.simulation.backends import (
    BackendUnavailable, available_backends, numpy_available,
)

assert numpy_available() is False
assert available_backends() == ("reference", "auto")

from repro import GMPolicy, Packet, SwitchConfig, Trace, run_cioq
from repro.core.cgu import CGUPolicy
from repro.simulation.engine import run_crossbar

config = SwitchConfig.square(2, speedup=1, b_in=2, b_out=2, b_cross=1)
packets = [
    Packet(0, 5.0, 0, 0, 0), Packet(1, 3.0, 0, 1, 0),
    Packet(2, 4.0, 1, 0, 1), Packet(3, 1.0, 1, 1, 1),
]
trace = Trace(packets, 2, 2)
assert (len(trace), trace.total_value, trace.is_unit_valued) == (4, 13.0, False)

# reference runs (explicitly and as the default)...
res = run_cioq(GMPolicy(), config, trace, backend="reference")
assert res.benefit == 13.0, res.benefit
assert run_cioq(GMPolicy(), config, trace).benefit == 13.0

# ...fast refuses with the environment-specific error...
try:
    run_cioq(GMPolicy(), config, trace, backend="fast")
except BackendUnavailable:
    pass
else:
    raise AssertionError("backend='fast' must raise without numpy")

# ...and auto degrades to reference, on both switch models: below its
# lanes x ports crossover it never tries the fast kernel, and a batch at
# the crossover (32 lanes x 2 ports) falls back when the loader fails.
assert run_cioq(GMPolicy(), config, trace, backend="auto").benefit == 13.0
xres = run_crossbar(CGUPolicy(), config, trace, backend="auto")
assert xres.benefit == 13.0, xres.benefit
from repro.simulation.engine import run_cioq_batch
batch = run_cioq_batch(GMPolicy, config, [trace] * 32, backend="auto")
assert [r.benefit for r in batch] == [13.0] * 32

# The trace file format is numpy-free too: a trace with trailing idle
# slots round-trips through Trace.save, Trace.load and iter_stream_slots.
import os, tempfile
from repro.traffic.trace import iter_stream_slots

def rows(packets):
    return [(p.pid, p.value, p.arrival, p.src, p.dst) for p in packets]

idle = Trace(packets, 2, 2, name="idle-tail", n_slots=7)
fd, path = tempfile.mkstemp(suffix=".jsonl")
os.close(fd)
try:
    idle.save(path, chunk_slots=2)
    back = Trace.load(path)
    streamed = [(t, rows(ps)) for t, ps in iter_stream_slots(path)]
finally:
    os.unlink(path)
assert (back.name, back.n_slots) == ("idle-tail", 7), back
assert back.content_digest() == idle.content_digest()
assert streamed == [(t, rows(ps)) for t, ps in enumerate(idle.arrival_slots())]
assert run_cioq(GMPolicy(), config, back).benefit == 13.0

print("OK")
"""


def _run_blocked(script):
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )


def test_reference_backend_runs_with_numpy_blocked():
    proc = _run_blocked(BLOCKED_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "OK"


def test_package_import_does_not_pull_numpy():
    """``import repro`` (and the reference engine chain) must not import
    numpy as a side effect — lazy exports keep the bare install viable."""
    script = (
        "import sys\n"
        "import repro\n"
        "import repro.simulation.engine\n"
        "import repro.core.gm\n"
        "assert 'numpy' not in sys.modules, 'eager numpy import leaked in'\n"
        "print('OK')\n"
    )
    proc = _run_blocked(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "OK"
