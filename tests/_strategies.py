"""Seeded random generators for the property-based test layer.

A tiny, dependency-free take on property-based testing: each generator
("strategy") takes a ``random.Random`` and returns an arbitrary-but-valid
instance — a :class:`~repro.scenarios.spec.ScenarioSpec`, a stochastic
traffic model, or a float sample.  Test modules loop a strategy a few
dozen times per seed and assert invariants (round-trip identity,
conservation, accumulator exactness).

Seeds come from :func:`property_seeds`: the fixed default keeps the
tier-1 suite deterministic, while CI adds one fresh seed per run via the
``REPRO_PROP_SEED`` environment variable.  Seeds appear in the pytest
parametrize id, so a failing randomized run prints exactly the seed to
reproduce it with::

    REPRO_PROP_SEED=12345 python -m pytest tests/test_property_layer.py
"""

from __future__ import annotations

import os
import random
import string
from typing import List, Optional, Tuple

from repro.scenarios.spec import (
    KNOWN_METRICS,
    POLICY_CLASSES,
    ScenarioSpec,
)
from repro.traffic import (
    ApplicationMixTraffic,
    BernoulliTraffic,
    BurstyTraffic,
    DiagonalTraffic,
    HotspotTraffic,
    MarkovModulatedTraffic,
    ParetoBurstTraffic,
    TrafficModel,
)
from repro.traffic.values import (
    exponential_values,
    geometric_class_values,
    pareto_values,
    two_value,
    uniform_values,
    unit_values,
)

#: The committed seed every run exercises (deterministic tier-1 baseline).
FIXED_SEED = 0xC0FFEE

#: Cases drawn per strategy per seed.
N_CASES = 25


def property_seeds() -> List[int]:
    """The fixed seed, plus one from ``REPRO_PROP_SEED`` when set (CI
    exports a fresh value per run and echoes it for reproduction)."""
    seeds = [FIXED_SEED]
    env = os.environ.get("REPRO_PROP_SEED")
    if env:
        seeds.append(int(env))
    return seeds


# --------------------------------------------------------------------------
# Scalar helpers
# --------------------------------------------------------------------------

def kebab_name(rng: random.Random) -> str:
    """A valid scenario name: kebab-case, starting alphanumeric."""
    alphabet = string.ascii_lowercase + string.digits
    head = rng.choice(alphabet)
    body = "".join(rng.choice(alphabet + "-") for _ in range(rng.randint(2, 18)))
    return head + body


def text(rng: random.Random) -> str:
    """A description-ish string; occasionally exercises the TOML
    emitter's escapes (quotes, tabs, newlines, control chars)."""
    pool = string.ascii_letters + string.digits + " .,:;!?()[]"
    s = "".join(rng.choice(pool) for _ in range(rng.randint(0, 40)))
    if rng.random() < 0.3:
        s += rng.choice(['"quoted"', "line\nbreak", "tab\tstop",
                         "back\\slash", "bell\x07"])
    return s


def scalar(rng: random.Random):
    """A TOML/JSON-safe scalar (bool before int: bool is an int subtype)."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice([True, False])
    if kind == 1:
        return rng.randint(-1000, 1000)
    if kind == 2:
        return round(rng.uniform(-100, 100), rng.randint(0, 12))
    return text(rng)


def params_dict(rng: random.Random, max_keys: int = 3, depth: int = 1) -> dict:
    """An arbitrary params mapping with TOML-safe keys and values
    (occasionally nested one level, like adversary policy_params)."""
    out = {}
    for _ in range(rng.randint(0, max_keys)):
        key = kebab_name(rng).replace("-", "_")
        if depth > 0 and rng.random() < 0.2:
            out[key] = params_dict(rng, max_keys=2, depth=depth - 1)
        elif rng.random() < 0.2:
            out[key] = [scalar(rng) for _ in range(rng.randint(0, 3))]
        else:
            out[key] = scalar(rng)
    return out


# --------------------------------------------------------------------------
# ScenarioSpec strategy
# --------------------------------------------------------------------------

def replicates_block(rng: random.Random, include_opt: bool,
                     metrics: Tuple[str, ...]) -> dict:
    block: dict = {"n": rng.randint(2, 64)}
    if rng.random() < 0.5:
        block["base_seed"] = rng.randint(0, 10_000)
    if rng.random() < 0.5:
        block["confidence"] = round(rng.uniform(0.5, 0.999), 6)
    if rng.random() < 0.4:
        block["bootstrap"] = rng.randint(0, 2000)
        block["bootstrap_seed"] = rng.randint(0, 10_000)
    if rng.random() < 0.4:
        block["target_half_width"] = round(rng.uniform(1e-3, 10.0), 9)
        # The stopping rule may only watch metrics the scenario exports.
        choices = ["benefit"] + list(metrics) + (
            ["ratio"] if include_opt else [])
        block["target_metric"] = rng.choice(choices)
        block["batch"] = rng.randint(1, 16)
    return block


def spec_strategy(rng: random.Random) -> ScenarioSpec:
    """An arbitrary *valid* ScenarioSpec (constructor-validated; not
    necessarily runnable — traffic params are free-form by design)."""
    model = rng.choice(sorted(POLICY_CLASSES))
    policy_names = sorted(POLICY_CLASSES[model])
    entries = []
    picked = rng.sample(policy_names, rng.randint(1, len(policy_names)))
    for i, name in enumerate(picked):
        entry: dict = {"name": name}
        if rng.random() < 0.4:
            entry["beta"] = round(rng.uniform(1.0, 5.0), rng.randint(0, 10))
        if rng.random() < 0.3:
            # The index keeps generated labels collision-free.
            entry["label"] = f"label-{i}-{kebab_name(rng)}"
        entries.append(entry)
    include_opt = rng.random() < 0.5
    metrics = tuple(rng.sample(KNOWN_METRICS, rng.randint(1, 4)))
    switch = {}
    for field_name, lo, hi in (("n_in", 1, 8), ("n_out", 1, 8),
                               ("speedup", 1, 4), ("b_in", 1, 8),
                               ("b_out", 1, 8), ("b_cross", 1, 4)):
        if rng.random() < 0.7:
            switch[field_name] = rng.randint(lo, hi)
    kwargs = dict(
        name=kebab_name(rng),
        description=text(rng),
        model=model,
        switch=switch,
        traffic=rng.choice(["bernoulli", "bursty", "hotspot", "diagonal",
                            "markov", "pareto-burst", "appmix", "replay",
                            "adversarial"]),
        traffic_params=params_dict(rng),
        values=rng.choice(["unit", "uniform", "two-value", "exponential",
                           "pareto", "classes"]),
        value_params=params_dict(rng),
        policies=tuple(entries),
        slots=rng.randint(1, 500),
        seeds=tuple(sorted(rng.sample(range(1000), rng.randint(1, 6)))),
        include_opt=include_opt,
        metrics=metrics,
        expected=text(rng),
    )
    if rng.random() < 0.5:
        kwargs["replicates"] = replicates_block(rng, include_opt, metrics)
    return ScenarioSpec(**kwargs)


# --------------------------------------------------------------------------
# Traffic-model strategy
# --------------------------------------------------------------------------

def value_model_strategy(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return unit_values()
    if kind == 1:
        lo = rng.uniform(0.5, 5.0)
        return uniform_values(lo, lo + rng.uniform(0.0, 50.0))
    if kind == 2:
        return two_value(alpha=rng.uniform(1.0, 50.0),
                         p_high=rng.uniform(0.0, 1.0))
    if kind == 3:
        return exponential_values(mean=rng.uniform(1.01, 20.0))
    if kind == 4:
        return pareto_values(shape=rng.uniform(0.5, 3.0),
                             scale=rng.uniform(0.1, 5.0))
    return geometric_class_values(n_classes=rng.randint(1, 6),
                                  base=rng.uniform(1.1, 8.0))


def traffic_strategy(
    rng: random.Random,
) -> Tuple[TrafficModel, int, int]:
    """An arbitrary stochastic traffic model with valid parameters;
    returns ``(model, n_in, n_out)``."""
    n_in = rng.randint(1, 6)
    n_out = rng.randint(1, 6)
    values = value_model_strategy(rng)
    kind = rng.randrange(7)
    if kind == 0:
        model: TrafficModel = BernoulliTraffic(
            n_in, n_out, load=rng.uniform(0.0, 3.0), value_model=values)
    elif kind == 1:
        model = BurstyTraffic(
            n_in, n_out, p_on=rng.uniform(0.05, 1.0),
            p_off=rng.uniform(0.05, 1.0),
            burst_load=rng.uniform(0.1, 3.0), value_model=values)
    elif kind == 2:
        model = HotspotTraffic(
            n_in, n_out, load=rng.uniform(0.0, 3.0),
            hot_fraction=rng.uniform(0.0, 1.0),
            hot_port=rng.randrange(n_out), value_model=values)
    elif kind == 3:
        model = DiagonalTraffic(
            n_in, n_out, load=rng.uniform(0.0, 3.0),
            diag_fraction=rng.uniform(0.0, 1.0), value_model=values)
    elif kind == 4:
        k = rng.randint(1, 4)
        loads = [rng.uniform(0.0, 3.0) for _ in range(k)]
        rows = []
        for _ in range(k):
            raw = [rng.uniform(0.01, 1.0) for _ in range(k)]
            total = sum(raw)
            rows.append([x / total for x in raw])
        model = MarkovModulatedTraffic(
            n_in, n_out, loads=loads, transition=rows, value_model=values)
    elif kind == 5:
        model = ParetoBurstTraffic(
            n_in, n_out, shape=rng.uniform(0.8, 3.0),
            p_start=rng.uniform(0.05, 1.0),
            burst_load=rng.uniform(0.5, 3.0),
            max_burst=rng.randint(1, 200), value_model=values)
    else:
        model = ApplicationMixTraffic(
            n_in, n_out,
            web={"p_start": rng.uniform(0.0, 0.3),
                 "shape": rng.uniform(0.8, 2.0),
                 "max_len": rng.randint(1, 80),
                 "rate": rng.uniform(0.2, 3.0)},
            video={"p_start": rng.uniform(0.0, 0.1),
                   "mean_len": rng.uniform(1.0, 200.0),
                   "rate": rng.uniform(0.2, 1.5)},
            voip={"p_start": rng.uniform(0.0, 0.3),
                  "mean_len": rng.uniform(1.0, 50.0),
                  "rate": rng.uniform(0.05, 1.0)},
            load_scale=rng.uniform(0.3, 1.5), value_model=values)
    return model, n_in, n_out


def float_sample(rng: random.Random, allow_big_offset: bool = True) -> List[float]:
    """A float sample for accumulator properties: varied length, scale
    and (optionally) a large common offset to stress cancellation."""
    n = rng.randint(1, 200)
    scale = 10.0 ** rng.randint(-3, 4)
    offset = 10.0 ** rng.randint(4, 6) if (
        allow_big_offset and rng.random() < 0.3) else 0.0
    return [offset + rng.gauss(0.0, 1.0) * scale for _ in range(n)]


def opt_instance_strategy(
    rng: random.Random,
) -> Tuple["Trace", "SwitchConfig", str]:
    """A tiny offline-OPT instance: ``(trace, config, model)``.

    Small enough (<= 3x3 ports, <= 8 arrival slots, buffers <= 2) that
    the exact time-expanded MILP solves in milliseconds, so certified
    bracket properties can be checked against the exact optimum.
    """
    from repro.switch.config import SwitchConfig

    n_in = rng.randint(1, 3)
    n_out = rng.randint(1, 3)
    config = SwitchConfig(
        n_in=n_in, n_out=n_out, speedup=rng.randint(1, 2),
        b_in=rng.randint(1, 2), b_out=rng.randint(1, 2), b_cross=1,
    )
    model = rng.choice(("cioq", "crossbar"))
    traffic = BernoulliTraffic(
        n_in, n_out, load=rng.uniform(0.3, 2.5),
        value_model=value_model_strategy(rng),
    )
    trace = traffic.generate(rng.randint(2, 8), seed=rng.randrange(2 ** 31))
    return trace, config, model


def split_trace(trace: "Trace", cut: int) -> Tuple["Trace", "Trace"]:
    """``trace`` cut at arrival slot ``cut``: the packets arriving
    before it (``n_slots == cut``) and those arriving at or after it,
    re-based to slot 0."""
    from repro.switch.packet import Packet
    from repro.traffic.trace import Trace

    head = [p for p in trace.packets if p.arrival < cut]
    tail = [Packet(p.pid, p.value, p.arrival - cut, p.src, p.dst)
            for p in trace.packets if p.arrival >= cut]
    return (Trace(head, trace.n_in, trace.n_out, n_slots=cut),
            Trace(tail, trace.n_in, trace.n_out,
                  n_slots=trace.n_slots - cut))
