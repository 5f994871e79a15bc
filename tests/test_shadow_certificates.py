"""Pin every field of the four shadow replays' certificates.

``shadow_certificates.json`` holds the certificates of
:func:`~repro.theory.shadow.replay_gm_shadow`,
:func:`~repro.theory.shadow_weighted.replay_pg_shadow`,
:func:`~repro.theory.shadow.replay_cgu_shadow` and
:func:`~repro.theory.shadow_cpg.replay_cpg_shadow` on a fixed instance
matrix:

* every T8 cell of ``benchmarks/bench_t8_theory.py`` (3 GM, 3 PG,
  2 CGU, 2 CPG);
* a unit-value GM grid over N 2-4, speedup 1-2, buffers 1-3 and loads
  0.8/1.5/2.5 (108 instances);
* 24 weighted instances each for PG and CPG.

Each certificate is compared field by field, floats by ``repr``, so a
refactor of the replays must reproduce the recording to the last bit.
The recording predates the fold of Theorem 1's replay into Theorem 2's.
A change that moves a certificate on purpose re-records and says so in
CHANGES.md::

    PYTHONPATH=src python tests/test_shadow_certificates.py --record

The module also checks that a replay handed another trace's online log
says so with an :class:`~repro.theory.shadow.InvariantViolation`.
"""

import dataclasses
import json
import pathlib
import sys

import pytest

from repro.core.cgu import CGUPolicy
from repro.core.cpg import CPGPolicy
from repro.core.gm import GMPolicy
from repro.core.params import cpg_optimal_params, pg_optimal_beta
from repro.core.pg import PGPolicy
from repro.offline.crossbar_timegraph import CrossbarOptModel
from repro.offline.opt import cioq_opt
from repro.simulation.engine import run_cioq, run_crossbar
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.theory.shadow import (
    InvariantViolation,
    replay_cgu_shadow,
    replay_gm_shadow,
)
from repro.theory.shadow_cpg import replay_cpg_shadow
from repro.theory.shadow_weighted import replay_pg_shadow
from repro.traffic.adversarial import (
    SingleOutputOverloadAdversary,
    beta_admission_gadget,
    generate_adaptive_trace,
)
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.trace import Trace
from repro.traffic.values import (
    pareto_values,
    two_value,
    uniform_values,
    unit_values,
)

FIXTURE = pathlib.Path(__file__).with_name("shadow_certificates.json")

#: Arrival slots of the grid instances.
SLOTS = 12


def gm_certificate(trace, config):
    gm = run_cioq(GMPolicy(), config, trace, record=True)
    opt = cioq_opt(trace, config, extract_schedule=True)
    return replay_gm_shadow(trace, config, gm, opt)


def pg_certificate(trace, config, beta):
    pg = run_cioq(PGPolicy(beta=beta), config, trace, record=True)
    opt = cioq_opt(trace, config, extract_schedule=True)
    return replay_pg_shadow(trace, config, pg, opt, beta)


def cgu_certificate(trace, config):
    cgu = run_crossbar(CGUPolicy(), config, trace, record=True)
    model = CrossbarOptModel(trace, config)
    opt = model.solve(extract_schedule=True)
    return replay_cgu_shadow(trace, config, cgu, model, opt)


def cpg_certificate(trace, config, beta, alpha):
    cpg = run_crossbar(CPGPolicy(beta=beta, alpha=alpha), config, trace,
                       record=True)
    model = CrossbarOptModel(trace, config)
    opt = model.solve(extract_schedule=True)
    return replay_cpg_shadow(trace, config, cpg, model, opt, beta, alpha)


def _t8_cells():
    """``(case, build)`` for the T8 bench cells, built as the bench does."""
    sq3 = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2)
    cross3 = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
    adv4 = SwitchConfig.square(4, speedup=1, b_in=2, b_out=2)
    beta = pg_optimal_beta()
    cpg_beta, cpg_alpha, _ = cpg_optimal_params()
    yield "t8/gm/bernoulli-1.2", lambda: gm_certificate(
        BernoulliTraffic(3, 3, load=1.2).generate(15, seed=0), sq3)
    yield "t8/gm/hotspot-70", lambda: gm_certificate(
        HotspotTraffic(3, 3, load=1.3, hot_fraction=0.7).generate(15, seed=1),
        sq3)
    yield "t8/gm/adversarial-overload", lambda: gm_certificate(
        generate_adaptive_trace(GMPolicy, adv4,
                                SingleOutputOverloadAdversary(), n_slots=14),
        adv4)
    yield "t8/pg/uniform", lambda: pg_certificate(
        BernoulliTraffic(3, 3, load=1.4, value_model=uniform_values(1, 50))
        .generate(14, seed=0), sq3, beta)
    yield "t8/pg/two-value", lambda: pg_certificate(
        BernoulliTraffic(3, 3, load=1.5, value_model=two_value(20, 0.25))
        .generate(14, seed=1), sq3, beta)
    yield "t8/pg/beta-admission-gadget", lambda: pg_certificate(
        beta_admission_gadget(beta, n=2, b_out=4, rate=3, n_rounds=2),
        SwitchConfig.square(2, speedup=2, b_in=4, b_out=4), beta)
    for load, seed in ((1.1, 0), (1.4, 1)):
        yield f"t8/cgu/bernoulli-{load}", (
            lambda load=load, seed=seed: cgu_certificate(
                BernoulliTraffic(3, 3, load=load).generate(14, seed=seed),
                cross3))
    for name, values, seed in (("uniform", uniform_values(1, 50), 0),
                               ("two-value", two_value(20, 0.25), 1)):
        yield f"t8/cpg/{name}", (
            lambda values=values, seed=seed: cpg_certificate(
                BernoulliTraffic(3, 3, load=1.5, value_model=values)
                .generate(12, seed=seed), cross3, cpg_beta, cpg_alpha))


def _gm_grid():
    """Unit values: N 2-4, speedup 1-2, loads 0.8/1.5/2.5, six seeds
    whose (b_in, b_out) cycle through (1, 3), (2, 2) and (3, 1)."""
    for n in (2, 3, 4):
        for speedup in (1, 2):
            for load in (0.8, 1.5, 2.5):
                for seed in range(6):
                    b_in, b_out = 1 + seed % 3, 3 - seed % 3
                    config = SwitchConfig.square(n, speedup=speedup,
                                                 b_in=b_in, b_out=b_out)
                    yield (f"grid/gm/n{n}-s{speedup}-l{load}-{seed}",
                           lambda n=n, load=load, seed=seed, config=config:
                           gm_certificate(BernoulliTraffic(n, n, load=load)
                                          .generate(SLOTS, seed=seed),
                                          config))


VALUE_MODELS = (("uniform", uniform_values(1, 50)),
                ("two-value", two_value(20, 0.25)),
                ("pareto", pareto_values(1.4)))


def _weighted_grid():
    """N 2-3, speedup 1-2, three value models and two seeds, for PG
    (seed 0 at the optimal beta, seed 1 at beta 1.5) and for CPG (seed 0
    at the optimal (beta, alpha) with ``b_cross`` 1, seed 1 at (2, 3)
    with ``b_cross`` 2)."""
    pg_betas = (pg_optimal_beta(), 1.5)
    cpg_params = (cpg_optimal_params()[:2], (2.0, 3.0))
    for n in (2, 3):
        for speedup in (1, 2):
            for name, values in VALUE_MODELS:
                traffic = BernoulliTraffic(n, n, load=1.5, value_model=values)
                for seed in (0, 1):
                    tag = f"n{n}-s{speedup}-{name}-{seed}"
                    cioq = SwitchConfig.square(n, speedup=speedup,
                                               b_in=1 + seed, b_out=2)
                    yield f"grid/pg/{tag}", (
                        lambda traffic=traffic, seed=seed, cioq=cioq:
                        pg_certificate(traffic.generate(SLOTS, seed=seed),
                                       cioq, pg_betas[seed]))
                    cross = SwitchConfig.square(n, speedup=speedup, b_in=2,
                                                b_out=2, b_cross=1 + seed)
                    yield f"grid/cpg/{tag}", (
                        lambda traffic=traffic, seed=seed, cross=cross:
                        cpg_certificate(traffic.generate(SLOTS, seed=seed),
                                        cross, *cpg_params[seed]))


CASES = dict(list(_t8_cells()) + list(_gm_grid()) + list(_weighted_grid()))


def canonical(cert) -> dict:
    """Every certificate field, its type pinned too: floats as ``repr``
    strings, tuples as lists, ints as ints."""
    def canon(value):
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, tuple):
            return [canon(v) for v in value]
        return value

    return {type(cert).__name__: {
        field.name: canon(getattr(cert, field.name))
        for field in dataclasses.fields(cert)
    }}


def current_certificates():
    return {case: canonical(build()) for case, build in CASES.items()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def test_matrix_matches_recording(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_certificate_unchanged(case, recorded):
    assert canonical(CASES[case]()) == recorded[case]


@pytest.mark.parametrize("shift, offset", [(3, 0), (0, 1000)],
                         ids=["late", "unknown-pid"])
@pytest.mark.parametrize("replay", ["gm", "pg", "cpg"])
def test_foreign_online_log_is_diagnosed(replay, shift, offset):
    """A log recorded on one trace and replayed against the same packets
    arriving ``shift`` slots later, or under pids the trace lacks, raises
    InvariantViolation, not an IndexError or a KeyError."""
    config = SwitchConfig.square(2, speedup=1, b_in=2, b_out=2, b_cross=1)
    values = unit_values() if replay == "gm" else uniform_values(1, 50)
    trace = BernoulliTraffic(2, 2, load=1.5, value_model=values).generate(
        SLOTS, seed=0)
    foreign = Trace([Packet(p.pid + offset, p.value, p.arrival + shift,
                            p.src, p.dst) for p in trace.packets], 2, 2)
    if replay == "cpg":
        model = CrossbarOptModel(foreign, config)
        logged = run_crossbar(CPGPolicy(beta=2.0, alpha=3.0), config, trace,
                              record=True)
        args = (logged, model, model.solve(extract_schedule=True), 2.0, 3.0)
    else:
        policy = GMPolicy() if replay == "gm" else PGPolicy(beta=2.0)
        logged = run_cioq(policy, config, trace, record=True)
        opt = cioq_opt(foreign, config, extract_schedule=True)
        args = (logged, opt) if replay == "gm" else (logged, opt, 2.0)
    replay_fn = {"gm": replay_gm_shadow, "pg": replay_pg_shadow,
                 "cpg": replay_cpg_shadow}[replay]
    with pytest.raises(InvariantViolation, match="^online"):
        replay_fn(foreign, config, *args)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_shadow_certificates.py --record")
    certificates = current_certificates()
    FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(case)}: {json.dumps(certificates[case], sort_keys=True)}"
        for case in sorted(certificates)) + "\n}\n")
    print(f"recorded {len(CASES)} certificates to {FIXTURE}")
