"""Pin the packets every stochastic traffic model draws from a seed.

``traffic_digests.json`` holds :meth:`~repro.traffic.trace.Trace.content_digest`
and the packet count of ``generate`` on a fixed matrix:

* every stochastic :data:`~repro.scenarios.spec.TRAFFIC_KINDS` kind at
  its defaults, plus variants of ``bursty``, ``markov`` and ``appmix``
  with fractional loads and skewed destination weights (one weight is
  zero);
* crossed with every :data:`~repro.scenarios.spec.VALUE_KINDS` kind at
  its defaults;
* on seeds 0-2.

The digest covers each packet's (pid, value, arrival, src, dst), so a
change to how a model draws — bulk instead of scalar, a reordered draw,
a different numpy call — must reproduce the recording to the last bit.
The recording predates bulk value and destination draws.  Each cell
also checks that :meth:`~repro.traffic.base.TrafficModel.arrival_source`
replays ``generate`` exactly.

A change that moves the draw stream on purpose also bumps
``CACHE_VERSION``, re-records and says so in CHANGES.md::

    PYTHONPATH=src python tests/test_traffic_digests.py --record
"""

import json
import pathlib
import sys

import pytest

from repro.scenarios.spec import TRAFFIC_KINDS, VALUE_KINDS
from repro.switch.config import SwitchConfig

DIGESTS = pathlib.Path(__file__).with_name("traffic_digests.json")

#: Arrival slots per trace.
SLOTS = 120

#: A non-square switch, so an ``n_in``/``n_out`` mix-up shows.
CONFIG = SwitchConfig(n_in=5, n_out=4)

#: Kinds whose packets are not drawn from the seed.
RECORDED_KINDS = ("replay", "adversarial")

SKEWED = [4.0, 0.0, 1.0, 2.5]

#: Traffic configurations: name -> (kind, params).
TRAFFIC = {
    "bernoulli": ("bernoulli", {}),
    "bursty": ("bursty", {}),
    "bursty-skewed": ("bursty", {"burst_load": 1.3, "dst_weights": SKEWED}),
    "hotspot": ("hotspot", {}),
    "diagonal": ("diagonal", {}),
    "markov": ("markov", {}),
    "markov-skewed": ("markov", {"loads": [0.0, 0.45, 1.7],
                                 "dst_weights": SKEWED}),
    "pareto-burst": ("pareto-burst", {}),
    "appmix": ("appmix", {}),
    "appmix-skewed": ("appmix", {"load_scale": 0.7, "dst_weights": SKEWED}),
}

SEEDS = (0, 1, 2)


def _model(traffic: str, values: str):
    kind, params = TRAFFIC[traffic]
    return TRAFFIC_KINDS[kind](CONFIG, SLOTS, VALUE_KINDS[values](), params)


CASES = [
    (traffic, values, seed)
    for traffic in TRAFFIC
    for values in VALUE_KINDS
    for seed in SEEDS
]


def _key(traffic: str, values: str, seed: int) -> str:
    return f"{traffic}/{values}/seed{seed}"


def current_digests():
    out = {}
    for traffic, values, seed in CASES:
        trace = _model(traffic, values).generate(SLOTS, seed=seed)
        out[_key(traffic, values, seed)] = {
            "digest": trace.content_digest(),
            "packets": len(trace.packets),
        }
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_matrix_covers_every_stochastic_kind():
    stochastic = set(TRAFFIC_KINDS) - set(RECORDED_KINDS)
    assert {kind for kind, _ in TRAFFIC.values()} == stochastic


def test_matrix_matches_recording(recorded):
    assert sorted(recorded) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("traffic,values,seed", CASES)
def test_trace_unchanged(traffic, values, seed, recorded):
    model = _model(traffic, values)
    trace = model.generate(SLOTS, seed=seed)
    assert {
        "digest": trace.content_digest(),
        "packets": len(trace.packets),
    } == recorded[_key(traffic, values, seed)], (
        f"{traffic}/{values}/seed{seed}: the draw stream changed"
    )
    source = model.arrival_source(seed=seed)
    streamed = [
        (t, src, dst, value)
        for t in range(SLOTS)
        for src, dst, value in source(t, None)
    ]
    assert streamed == [
        (p.arrival, p.src, p.dst, p.value) for p in trace.packets
    ]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_traffic_digests.py --record")
    DIGESTS.write_text(json.dumps(current_digests(), indent=1,
                                  sort_keys=True) + "\n")
    print(f"recorded {len(CASES)} trace digests to {DIGESTS}")
