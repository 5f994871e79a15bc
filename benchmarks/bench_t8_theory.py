"""T8 — proof machinery: paper constants and shadow-OPT certificates.

1. The analytical constants of Theorems 2 and 4 re-derived numerically
   (beta* = 1 + sqrt 2, the Theorem 4 radicals, the 5.83 / 14.83
   minima) — the executable version of the paper's "it can be verified
   that ..." remarks.
2. The modified-OPT replays of all four theorems executed literally
   against recorded online runs: Modifications 2.1.1/2.1.2 (Theorem 1,
   GM), 2.2.1-2.2.3 (Theorem 2, PG), 3.1.1-3.1.3 (Theorem 3, CGU) and
   3.2.1-3.2.3 (Theorem 4, CPG), with the dominance invariants of
   Lemmas 1, 4, 8 and 12 checked after every event and the
   privileged/extra-packet accounting reported per instance.

The CGU replay also reports the *displacement* corner (an OPT normal
transfer finding its modified crosspoint queue pre-filled by extras),
which the paper's prose does not treat — see
``repro.theory.shadow.replay_cgu_shadow``.
"""

from repro.analysis.report import format_table
from repro.core.cgu import CGUPolicy
from repro.core.gm import GMPolicy
from repro.offline.crossbar_timegraph import CrossbarOptModel
from repro.offline.opt import cioq_opt
from repro.simulation.engine import run_cioq, run_crossbar
from repro.switch.config import SwitchConfig
from repro.theory.ratios import verify_paper_constants
from repro.theory.shadow import replay_cgu_shadow, replay_gm_shadow
from repro.traffic.adversarial import (
    SingleOutputOverloadAdversary,
    generate_adaptive_trace,
)
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.hotspot import HotspotTraffic

from conftest import run_once


def test_t8_paper_constants(benchmark, emit):
    report = run_once(benchmark, verify_paper_constants)
    rows = [
        {"constant": "PG beta*", "value": round(report["pg_beta_star"], 6),
         "expected": "1 + sqrt(2)", "ok": report["pg_consistent"]},
        {"constant": "PG ratio*", "value": round(report["pg_ratio_star"], 6),
         "expected": "3 + 2 sqrt(2) ~ 5.8284", "ok": report["pg_consistent"]},
        {"constant": "CPG beta*", "value": round(report["cpg_beta_star"], 6),
         "expected": "(rho^2+rho+4)/(3 rho)", "ok": report["cpg_consistent"]},
        {"constant": "CPG alpha*", "value": round(report["cpg_alpha_star"], 6),
         "expected": "2/(beta*-1)^2", "ok": report["cpg_consistent"]},
        {"constant": "CPG ratio*", "value": round(report["cpg_ratio_star"], 6),
         "expected": "~14.83", "ok": report["cpg_consistent"]},
    ]
    emit("\n" + format_table(
        rows, title="T8a - paper constants vs independent numerical optima"
    ))
    assert report["pg_consistent"] and report["cpg_consistent"]
    assert report["cpg_cubic_residual"] < 1e-5


def compute_gm_certificates():
    rows = []
    cases = [
        ("bernoulli 1.2",
         SwitchConfig.square(3, speedup=1, b_in=2, b_out=2),
         BernoulliTraffic(3, 3, load=1.2).generate(15, seed=0)),
        ("hotspot 70%",
         SwitchConfig.square(3, speedup=1, b_in=2, b_out=2),
         HotspotTraffic(3, 3, load=1.3, hot_fraction=0.7).generate(15, seed=1)),
    ]
    cfg_adv = SwitchConfig.square(4, speedup=1, b_in=2, b_out=2)
    cases.append((
        "adversarial overload",
        cfg_adv,
        generate_adaptive_trace(GMPolicy, cfg_adv,
                                SingleOutputOverloadAdversary(), n_slots=14),
    ))
    for label, cfg, trace in cases:
        gm = run_cioq(GMPolicy(), cfg, trace, record=True)
        opt = cioq_opt(trace, cfg, extract_schedule=True)
        cert = replay_gm_shadow(trace, cfg, gm, opt)
        rows.append({
            "instance": label,
            "GM": cert.gm_benefit,
            "OPT": cert.opt_benefit,
            "S*": cert.s_star,
            "P1": cert.privileged_type1,
            "P2": cert.privileged_type2,
            "checks": cert.invariant_checks,
            "Thm1 ok": cert.theorem1_certified,
        })
    return rows


def compute_cgu_certificates():
    rows = []
    for label, load, seed in [
        ("bernoulli 1.1", 1.1, 0),
        ("bernoulli 1.4", 1.4, 1),
    ]:
        cfg = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(3, 3, load=load).generate(14, seed=seed)
        cgu = run_crossbar(CGUPolicy(), cfg, trace, record=True)
        model = CrossbarOptModel(trace, cfg)
        opt = model.solve(extract_schedule=True)
        cert = replay_cgu_shadow(trace, cfg, cgu, model, opt)
        rows.append({
            "instance": label,
            "CGU": cert.cgu_benefit,
            "OPT": cert.opt_benefit,
            "S*": cert.s_star_transmissions,
            "priv": cert.privileged,
            "extra1": cert.extra_type1,
            "extra2": cert.extra_type2,
            "displaced": cert.displaced,
            "L9 viol": cert.lemma9_violations,
            "Thm3 ok": cert.theorem3_certified,
        })
    return rows


def test_t8_gm_shadow_certificates(benchmark, emit):
    rows = run_once(benchmark, compute_gm_certificates)
    emit("\n" + format_table(
        rows,
        title="T8b - Theorem 1 shadow certificates (Lemma 1 invariants "
              "checked after every event; S* <= S and P* <= 2S verified)",
    ))
    assert all(r["Thm1 ok"] for r in rows)


def compute_pg_certificates():
    from repro.core.params import pg_optimal_beta
    from repro.core.pg import PGPolicy
    from repro.theory.shadow_weighted import replay_pg_shadow
    from repro.traffic.adversarial import beta_admission_gadget
    from repro.traffic.values import two_value, uniform_values

    beta = pg_optimal_beta()
    rows = []
    cases = [
        ("uniform values",
         SwitchConfig.square(3, speedup=1, b_in=2, b_out=2),
         BernoulliTraffic(3, 3, load=1.4,
                          value_model=uniform_values(1, 50)).generate(14, seed=0)),
        ("two-value a=20",
         SwitchConfig.square(3, speedup=1, b_in=2, b_out=2),
         BernoulliTraffic(3, 3, load=1.5,
                          value_model=two_value(20, 0.25)).generate(14, seed=1)),
        ("beta-admission gadget",
         SwitchConfig.square(2, speedup=2, b_in=4, b_out=4),
         beta_admission_gadget(beta, n=2, b_out=4, rate=3, n_rounds=2)),
    ]
    for label, cfg, trace in cases:
        pg = run_cioq(PGPolicy(beta=beta), cfg, trace, record=True)
        opt = cioq_opt(trace, cfg, extract_schedule=True)
        cert = replay_pg_shadow(trace, cfg, pg, opt, beta)
        rows.append({
            "instance": label,
            "PG": round(cert.pg_benefit, 1),
            "OPT": round(cert.opt_benefit, 1),
            "S*": round(cert.s_star_value, 1),
            "P*": round(cert.privileged_value, 1),
            "P1/P2/P3": "/".join(str(n) for n in cert.n_privileged),
            "checks": cert.invariant_checks,
            "Thm2 ok": cert.theorem2_certified,
        })
    return rows


def test_t8_pg_shadow_certificates(benchmark, emit):
    rows = run_once(benchmark, compute_pg_certificates)
    emit("\n" + format_table(
        rows,
        title="T8d - Theorem 2 shadow certificates (Lemma 4 positional "
              "value alignment checked after every event; "
              "S* <= beta S and P* <= 2beta/(beta-1) S verified)",
    ))
    assert all(r["Thm2 ok"] for r in rows)


def test_t8_cgu_shadow_certificates(benchmark, emit):
    rows = run_once(benchmark, compute_cgu_certificates)
    emit("\n" + format_table(
        rows,
        title="T8c - Theorem 3 shadow certificates (Lemma 8 invariants; "
              "Lemma 9 per cycle; displacement corner reported)",
    ))
    assert all(r["Thm3 ok"] for r in rows)
    assert all(r["L9 viol"] == 0 for r in rows)


def compute_cpg_certificates():
    from repro.core.cpg import CPGPolicy
    from repro.core.params import cpg_optimal_params
    from repro.theory.shadow_cpg import replay_cpg_shadow
    from repro.traffic.values import two_value, uniform_values

    beta, alpha, _ = cpg_optimal_params()
    rows = []
    for label, values, seed in [
        ("uniform values", uniform_values(1, 50), 0),
        ("two-value a=20", two_value(20, 0.25), 1),
    ]:
        cfg = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(3, 3, load=1.5,
                                 value_model=values).generate(12, seed=seed)
        cpg = run_crossbar(CPGPolicy(beta=beta, alpha=alpha), cfg, trace,
                           record=True)
        model = CrossbarOptModel(trace, cfg)
        opt = model.solve(extract_schedule=True)
        cert = replay_cpg_shadow(trace, cfg, cpg, model, opt, beta, alpha)
        rows.append({
            "instance": label,
            "CPG": round(cert.cpg_benefit, 1),
            "OPT": round(cert.opt_benefit, 1),
            "S*": round(cert.s_star_value, 1),
            "P*": round(cert.privileged_value, 1),
            "P1/P2/P3": "/".join(str(n) for n in cert.n_privileged),
            "checks": cert.invariant_checks,
            "Thm4 ok": cert.theorem4_certified,
        })
    return rows


def test_t8_cpg_shadow_certificates(benchmark, emit):
    rows = run_once(benchmark, compute_cpg_certificates)
    emit("\n" + format_table(
        rows,
        title="T8e - Theorem 4 shadow certificates (Lemma 12's three-level "
              "alignment I1/I2/I3 checked after every event)",
    ))
    assert all(r["Thm4 ok"] for r in rows)
