"""Pin the exact HiGHS input of both time-expanded OPT models.

Tier-1 otherwise sees only solved benefits, so a reordered row or
column would pass every other test; yet HiGHS may then settle on a
different optimum among ties, and the extracted schedules and golden
result digests would move.  This test digests the arrays handed to
``scipy.optimize.milp`` — the constraint matrix in CSC form, the row
bounds, the objective and the variable bounds — never the solution, so
it does not depend on which tied optimum a scipy release returns.

The instance matrix crosses speedup 1/2, ``b_cross`` 1/2 and unit /
weighted values on a 3x3 Bernoulli trace, and adds every builtin
scenario cut to :data:`SLOTS` arrival slots; each instance is built as
both a CIOQ and a crossbar model.

A change that reorders the model on purpose re-records the digests and
says so in CHANGES.md::

    PYTHONPATH=src python tests/test_opt_model_layout.py --record
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.offline.crossbar_timegraph import CrossbarOptModel
from repro.offline.timegraph import CIOQOptModel
from repro.scenarios import all_scenarios
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.values import uniform_values, unit_values

DIGESTS = pathlib.Path(__file__).with_name("opt_model_digests.json")

#: Arrival slots per instance (builtin scenarios are cut to this).
SLOTS = 12

MODELS = {"cioq": CIOQOptModel, "crossbar": CrossbarOptModel}


def _instances():
    """``(name, trace, config)`` for every instance of the matrix."""
    for speedup in (1, 2):
        for b_cross in (1, 2):
            for values, value_model in (("unit", unit_values()),
                                        ("weighted", uniform_values(1, 50))):
                config = SwitchConfig.square(3, speedup=speedup, b_in=2,
                                             b_out=2, b_cross=b_cross)
                traffic = BernoulliTraffic(3, 3, load=1.3,
                                           value_model=value_model)
                for seed in (0, 1):
                    name = f"grid-s{speedup}-c{b_cross}-{values}-{seed}"
                    yield name, traffic.generate(SLOTS, seed=seed), config
    for spec in all_scenarios():
        cut = spec.with_overrides(slots=SLOTS)
        trace = cut.build_traffic().generate(SLOTS, seed=cut.seeds[0])
        yield spec.name, trace, cut.build_config()


def model_digest(model) -> str:
    """sha256 over the shape and every array ``milp`` receives."""
    model.build()
    A = model.A.tocsc()
    arrays = (
        np.asarray(A.shape, dtype=np.int64),
        A.indptr.astype(np.int64),
        A.indices.astype(np.int64),
        A.data.astype(np.float64),
        np.asarray(model.row_lb, dtype=np.float64),
        np.asarray(model.row_ub, dtype=np.float64),
        np.asarray(model.objective, dtype=np.float64),
        np.asarray(model.bounds.lb, dtype=np.float64),
        np.asarray(model.bounds.ub, dtype=np.float64),
    )
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.int64(arr.size).tobytes())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def current_digests():
    return {
        f"{name}/{kind}": model_digest(cls(trace, config))
        for name, trace, config in _instances()
        for kind, cls in MODELS.items()
    }


CASES = [f"{name}/{kind}" for name, _, _ in _instances() for kind in MODELS]


@pytest.fixture(scope="module")
def digests():
    return current_digests()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_matrix_matches_recording(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_model_arrays_unchanged(case, digests, recorded):
    assert digests[case] == recorded[case], (
        f"{case}: the MILP handed to HiGHS changed; if the reorder is "
        "intended, re-record (see the module docstring)"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_opt_model_layout.py --record")
    DIGESTS.write_text(json.dumps(current_digests(), indent=1,
                                  sort_keys=True) + "\n")
    print(f"recorded {len(CASES)} model digests to {DIGESTS}")
