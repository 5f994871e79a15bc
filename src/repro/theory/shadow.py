"""Executable replay of the proofs' "modified OPT" constructions.

The paper's analyses (Sections 2.1 and 3.1) compare the online algorithm
against an optimal offline algorithm that is *modified on the fly*: at
the end of each scheduling cycle, OPT is granted "privileged" packets it
may send directly out of the switch (Modifications 2.1.1/2.1.2) and — in
the crossbar analysis — freshly created "extra" packets (Modifications
3.1.1–3.1.3).  These modifications are engineered so that simple
dominance invariants hold at all times:

* Lemma 1 (CIOQ, unit values):  |Q*_ij| <= |Q_ij| and |Q*_j| <= |Q_j|,
* Lemma 8 (crossbar, unit values):  |Q*_ij| <= |Q_ij| and
  |C*_ij| >= |C_ij|,

from which the competitive ratios follow by the mapping schemes of
Lemmas 3, 9 and 11.

This module *executes* those constructions on concrete instances: it
replays the recorded online run and the exact offline schedule side by
side, applies each modification literally, checks every invariant after
every event, and returns the resulting accounting — an instance-level
certificate that the proof machinery behaves as claimed (experiment T8).

Unit-value instances only (packets are anonymous units, which is what
makes the replay's bookkeeping exact).  Theorem 1's replay is Theorem
2's (:mod:`repro.theory.shadow_weighted`) run on unit values; Theorem
3's keeps its own slot loop, because Modifications 3.1.x insert extra
packets and Theorem 4's 3.2.x never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..offline.timegraph import OptResult
from ..simulation.results import SimulationResult
from ..switch.config import SwitchConfig
from ..traffic.trace import Trace


class InvariantViolation(AssertionError):
    """A dominance invariant from the paper's lemmas failed during replay."""


# ---------------------------------------------------------------------------
# CIOQ / GM — Theorem 1 machinery
# ---------------------------------------------------------------------------

@dataclass
class GMShadowCertificate:
    """Accounting of one Lemma 1 / Lemma 3 replay."""

    gm_benefit: int
    opt_benefit: int
    s_star: int              #: modified OPT's normal transmissions
    privileged_type1: int    #: Modification 2.1.1 packets
    privileged_type2: int    #: Modification 2.1.2 packets
    skipped_departures: int  #: OPT departures voided by earlier privileges
    invariant_checks: int    #: number of I1/I2 checks performed

    @property
    def modified_opt_benefit(self) -> int:
        return self.s_star + self.privileged_type1 + self.privileged_type2

    @property
    def s_star_bounded(self) -> bool:
        """|S*| <= |S| (consequence of Lemma 1)."""
        return self.s_star <= self.gm_benefit

    @property
    def privileged_bounded(self) -> bool:
        """|P*| <= 2 |S| (Lemma 3)."""
        return (
            self.privileged_type1 + self.privileged_type2 <= 2 * self.gm_benefit
        )

    @property
    def theorem1_certified(self) -> bool:
        """Modified OPT benefit <= 3 GM benefit, and it dominates OPT."""
        return (
            self.modified_opt_benefit >= self.opt_benefit
            and self.modified_opt_benefit <= 3 * self.gm_benefit
        )


def replay_gm_shadow(
    trace: Trace,
    config: SwitchConfig,
    gm_result: SimulationResult,
    opt_result: OptResult,
) -> GMShadowCertificate:
    """Execute Modifications 2.1.1/2.1.2 against a recorded GM run.

    ``gm_result`` must come from ``run_cioq(GMPolicy(), ..., record=True)``
    and ``opt_result`` from ``cioq_opt(..., extract_schedule=True)`` on
    the *same* trace and configuration.

    On unit values Theorem 2's construction is Theorem 1's: PG's arrival
    rule never preempts, Modification 2.2.2 never fires (no online
    transfer is worth less than OPT's packet), 2.2.3's ``v > β·tail``
    branch is dead for β >= 1 (leaving 2.1.2's "not full" test), and
    Lemma 4's positional alignment reduces to Lemma 1's count
    dominance.  So the replay is
    :func:`~repro.theory.shadow_weighted.replay_pg_shadow` on the GM run
    (any β > 1 gives the same counts), with Type 1 counted as 2.1.1 and
    Type 3 as 2.1.2.
    """
    if not trace.is_unit_valued:
        raise ValueError("shadow replay requires a unit-value trace")
    # Function-local: shadow_weighted imports InvariantViolation from here.
    from .shadow_weighted import replay_pg_shadow

    cert = replay_pg_shadow(trace, config, gm_result, opt_result, beta=2.0)
    type1, type2, type3 = cert.n_privileged
    if type2:
        raise InvariantViolation(
            f"Modification 2.2.2 fired {type2} times on unit values"
        )
    if type1 != cert.skipped_departures:
        raise InvariantViolation(
            f"privileged/skip conservation broken: {type1} != "
            f"{cert.skipped_departures}"
        )
    return GMShadowCertificate(
        gm_benefit=int(round(cert.pg_benefit)),
        opt_benefit=int(round(opt_result.benefit)),
        s_star=int(round(cert.s_star_value)),
        privileged_type1=type1,
        privileged_type2=type3,
        skipped_departures=cert.skipped_departures,
        invariant_checks=cert.invariant_checks,
    )


# ---------------------------------------------------------------------------
# Buffered crossbar / CGU — Theorem 3 machinery
# ---------------------------------------------------------------------------

@dataclass
class CGUShadowCertificate:
    """Accounting of one Lemma 8 / Lemma 9 / Lemma 11 replay."""

    cgu_benefit: int
    opt_benefit: int
    s_star_transmissions: int  #: uncounted (normal) units transmitted
    privileged: int            #: Modification 3.1.1 packets
    extra_type1: int           #: Modification 3.1.2 packets
    extra_type2: int           #: Modification 3.1.3 packets
    displaced: int             #: normal y-transfers deflected by a full C*
    skipped_y: int
    skipped_z: int
    lemma9_violations: int     #: cycles with |S*_T[s]| > |S_T[s]|
    lemma11_violations: int    #: cycles with |P*_T[s]| > 2 |S_T[s]|
    invariant_checks: int

    @property
    def modified_opt_benefit(self) -> int:
        return (
            self.s_star_transmissions
            + self.privileged
            + self.extra_type1
            + self.extra_type2
            + self.displaced
        )

    @property
    def theorem3_certified(self) -> bool:
        """The theorem-level certificate: the modified OPT dominates the
        true OPT, stays within 3x CGU, and Lemma 9 holds per cycle."""
        return (
            self.modified_opt_benefit >= self.opt_benefit
            and self.modified_opt_benefit <= 3 * self.cgu_benefit
            and self.lemma9_violations == 0
        )


def replay_cgu_shadow(
    trace: Trace,
    config: SwitchConfig,
    cgu_result: SimulationResult,
    opt_model,
    opt_result: OptResult,
) -> CGUShadowCertificate:
    """Execute Modifications 3.1.1–3.1.3 against a recorded CGU run.

    ``cgu_result`` must come from ``run_crossbar(CGUPolicy(), ...,
    record=True)``; ``opt_model`` is the solved
    :class:`~repro.offline.crossbar_timegraph.CrossbarOptModel` (with
    ``extract_schedule=True``), providing ``y_events`` / ``z_events``.

    Bookkeeping detail: units in the modified OPT's crosspoint and
    output queues carry a *credited* flag — privileged and extra packets
    contribute to OPT's benefit at creation (per the paper), so their
    later transmissions must not be credited again.  Normal units are
    credited at transmission (or at displacement, the corner case where
    a normal transfer finds its crosspoint queue filled by earlier
    extras; the paper's prose glosses this case, and the replay counts
    it separately for transparency).
    """
    if not trace.is_unit_valued:
        raise ValueError("shadow replay requires a unit-value trace")
    n_in, n_out = config.n_in, config.n_out
    b_in, b_cross, b_out = config.b_in, config.b_cross, config.b_out
    S = config.speedup

    onl_in: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    onl_out_tr: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for ev in cgu_result.schedule_log:
        key = (ev.slot, ev.cycle)
        if ev.stage == "in":
            onl_in.setdefault(key, []).append((ev.src, ev.dst))
        elif ev.stage == "out":
            onl_out_tr.setdefault(key, []).append((ev.src, ev.dst))
    opt_y: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for t, s, i, j in opt_model.y_events:
        opt_y.setdefault((t, s), []).append((i, j))
    opt_z: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for t, s, i, j in opt_model.z_events:
        opt_z.setdefault((t, s), []).append((i, j))
    opt_accepted: Set[int] = set(opt_result.accepted_pids)

    onl_voq = [[0] * n_out for _ in range(n_in)]
    onl_cross = [[0] * n_out for _ in range(n_in)]
    onl_outq = [0] * n_out
    opt_voq = [[0] * n_out for _ in range(n_in)]
    # Crosspoint and output queues of the modified OPT, split by credit
    # status: [uncounted, counted].
    opt_cross_u = [[0] * n_out for _ in range(n_in)]
    opt_cross_c = [[0] * n_out for _ in range(n_in)]
    opt_outq_u = [0] * n_out
    opt_outq_c = [0] * n_out

    checks = 0

    def check_invariants() -> None:
        nonlocal checks
        checks += 1
        for i in range(n_in):
            for j in range(n_out):
                if opt_voq[i][j] > onl_voq[i][j]:
                    raise InvariantViolation(
                        f"Lemma 8 I1 violated at VOQ ({i},{j}): "
                        f"|Q*|={opt_voq[i][j]} > |Q|={onl_voq[i][j]}"
                    )
                total_c_star = opt_cross_u[i][j] + opt_cross_c[i][j]
                if total_c_star < onl_cross[i][j]:
                    raise InvariantViolation(
                        f"Lemma 8 I2 violated at crosspoint ({i},{j}): "
                        f"|C*|={total_c_star} < |C|={onl_cross[i][j]}"
                    )

    s_star_trans = 0
    s_onl = 0
    priv = 0
    extra1 = 0
    extra2 = 0
    displaced = 0
    skipped_y = 0
    skipped_z = 0
    lemma9_violations = 0
    lemma11_violations = 0

    horizon = cgu_result.horizon
    for t in range(horizon):
        # ---- arrival phase ----
        for p in trace.arrivals(t):
            if onl_voq[p.src][p.dst] < b_in:  # CGU's arrival rule
                onl_voq[p.src][p.dst] += 1
            if p.pid in opt_accepted:
                opt_voq[p.src][p.dst] += 1
            check_invariants()

        # ---- scheduling phase ----
        for s in range(S):
            key = (t, s)
            onl_cycle_in = onl_in.get(key, [])
            onl_cycle_out = onl_out_tr.get(key, [])
            opt_cycle_y = opt_y.get(key, [])
            opt_cycle_z = opt_z.get(key, [])
            cycle_priv_extra = 0

            # --- input subphase ---
            for i, j in onl_cycle_in:
                if onl_voq[i][j] <= 0 or onl_cross[i][j] >= b_cross:
                    raise InvariantViolation(
                        f"online input log inconsistent at {key}, ({i},{j})"
                    )
                onl_voq[i][j] -= 1
                onl_cross[i][j] += 1

            executed_y: Set[Tuple[int, int]] = set()
            s_star_cycle = 0
            for i, j in opt_cycle_y:
                if opt_voq[i][j] <= 0:
                    skipped_y += 1
                    continue
                opt_voq[i][j] -= 1
                executed_y.add((i, j))
                if opt_cross_u[i][j] + opt_cross_c[i][j] < b_cross:
                    opt_cross_u[i][j] += 1
                    s_star_cycle += 1  # a normal-channel transfer (S*)
                else:
                    # Corner case the paper's prose glosses: the modified
                    # C*_ij was pre-filled by earlier extra/privileged
                    # packets, so the normal packet cannot use the normal
                    # channel.  It is deflected directly out (credited
                    # once) and accounted with the privileged packets —
                    # NOT with S*, preserving Lemma 9's per-cycle claim.
                    displaced += 1
                    cycle_priv_extra += 1

            # Modifications 3.1.1 / 3.1.2 (mutually exclusive per cycle).
            for i, j in onl_cycle_in:
                if (i, j) in executed_y:
                    continue
                c_star = opt_cross_u[i][j] + opt_cross_c[i][j]
                if opt_voq[i][j] > 0:
                    # 3.1.1: privileged packet from Q*_ij.
                    opt_voq[i][j] -= 1
                    priv += 1
                    cycle_priv_extra += 1
                    if c_star < b_cross:
                        opt_cross_c[i][j] += 1
                    # else: sent directly out (already credited).
                elif c_star < b_cross:
                    # 3.1.2: extra packet of Type 1.
                    opt_cross_c[i][j] += 1
                    extra1 += 1
                    cycle_priv_extra += 1

            if s_star_cycle > len(onl_cycle_in):
                lemma9_violations += 1

            # --- output subphase ---
            pre_onl_cross = [row[:] for row in onl_cross]
            for i, j in onl_cycle_out:
                if onl_cross[i][j] <= 0 or onl_outq[j] >= b_out:
                    raise InvariantViolation(
                        f"online output log inconsistent at {key}, ({i},{j})"
                    )
                onl_cross[i][j] -= 1
                onl_outq[j] += 1

            onl_out_srcs = {(i, j) for i, j in onl_cycle_out}
            for i, j in opt_cycle_z:
                took_uncounted = False
                if opt_cross_u[i][j] > 0:
                    opt_cross_u[i][j] -= 1
                    took_uncounted = True
                elif opt_cross_c[i][j] > 0:
                    opt_cross_c[i][j] -= 1
                else:
                    skipped_z += 1
                    continue
                if took_uncounted:
                    opt_outq_u[j] += 1
                else:
                    opt_outq_c[j] += 1
                # Modification 3.1.3: OPT transferred from C*_ij, CGU did
                # not transfer from C_ij, and C_ij is non-empty.
                if (i, j) not in onl_out_srcs and pre_onl_cross[i][j] > 0:
                    opt_cross_c[i][j] += 1
                    extra2 += 1
                    cycle_priv_extra += 1

            if cycle_priv_extra > 2 * len(onl_cycle_in):
                lemma11_violations += 1

            check_invariants()

        # ---- transmission phase (both greedy) ----
        for j in range(n_out):
            if opt_outq_u[j] > 0:
                opt_outq_u[j] -= 1
                s_star_trans += 1
            elif opt_outq_c[j] > 0:
                opt_outq_c[j] -= 1
            if onl_outq[j] > 0:
                onl_outq[j] -= 1
                s_onl += 1
        check_invariants()

    if s_onl != cgu_result.n_sent:
        raise InvariantViolation(
            f"replayed CGU benefit {s_onl} != recorded {cgu_result.n_sent}"
        )
    # Normal (uncounted) units must fully drain; credited units may
    # legitimately remain in crosspoint queues — extras contribute to the
    # benefit at creation, and the original schedule has no transfer
    # events for them.
    residual_normal = (
        sum(v for row in opt_voq for v in row)
        + sum(opt_cross_u[i][j] for i in range(n_in) for j in range(n_out))
        + sum(opt_outq_u)
    )
    if residual_normal:
        raise InvariantViolation(
            f"modified OPT failed to drain normal packets: "
            f"{residual_normal} units left"
        )
    credits = s_star_trans + priv + extra1 + extra2 + displaced
    if credits != len(opt_accepted) + extra1 + extra2:
        raise InvariantViolation(
            f"credit conservation broken: {credits} != "
            f"{len(opt_accepted)} + {extra1} + {extra2}"
        )

    return CGUShadowCertificate(
        cgu_benefit=s_onl,
        opt_benefit=int(round(opt_result.benefit)),
        s_star_transmissions=s_star_trans,
        privileged=priv,
        extra_type1=extra1,
        extra_type2=extra2,
        displaced=displaced,
        skipped_y=skipped_y,
        skipped_z=skipped_z,
        lemma9_violations=lemma9_violations,
        lemma11_violations=lemma11_violations,
        invariant_checks=checks,
    )
