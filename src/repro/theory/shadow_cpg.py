"""Executable replay of Theorem 4's modified-OPT construction (CPG).

The buffered-crossbar weighted analysis (Section 3.2) modifies OPT with
Modifications 3.2.1–3.2.3 (privileged packets of Types 1–3, all sent
directly out of the switch) and maintains the three-level alignment of
Lemma 12:

* I1: VOQs     — |Q*_ij| <= |Q_ij| and v(δ*_ij(k)) <= v(δ_ij(k)),
* I2: crosspoints — |C*_ij| <= |C_ij| and v(γ*_ij(k)) <= β v(γ_ij(k)),
* I3: outputs  — |Q*_j| <= |Q_j| and v(δ*_j(k)) <= α β v(δ_j(k)).

Unlike the unit-value crossbar construction (Modifications 3.1.x),
nothing here *inserts* packets into OPT's queues, so the modified
crosspoint occupancy never exceeds the original one and the
"displacement" corner of :func:`repro.theory.shadow.replay_cgu_shadow`
cannot arise — the weighted replay is exact.

Certificate checks (instance-level Theorem 4):

* Lemma 12 invariants after every event,
* transmission pairing: OPT's value v from output j implies CPG sends
  >= v / (α β) from j in the same slot,
* Σ S* <= α β Σ S  and
  Σ P* <= (2αβ + αβ(β−1)) / ((α−1)(β−1)) Σ S (Lemma 14's aggregate),
* benefit conservation: S* + P* equals OPT's true benefit, hence
  OPT <= ratio(β, α) · CPG on the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..core.params import cpg_ratio
from ..offline.timegraph import OptResult
from ..simulation.results import SimulationResult
from ..switch.config import SwitchConfig
from ..traffic.trace import Trace
from .shadow import InvariantViolation
from .shadow_weighted import _ValueQueue, _apply_online, _check_alignment

EPS = 1e-9


@dataclass
class CPGShadowCertificate:
    """Accounting of one Lemma 12 / Lemma 14 replay."""

    beta: float
    alpha: float
    cpg_benefit: float
    opt_benefit: float
    s_star_value: float
    privileged_value: float
    n_privileged: Tuple[int, int, int]
    skipped_y: int
    skipped_z: int
    invariant_checks: int

    @property
    def modified_opt_benefit(self) -> float:
        return self.s_star_value + self.privileged_value

    @property
    def s_star_bounded(self) -> bool:
        """Σ S* <= α β Σ S (consequence of Lemma 12 I3)."""
        return (
            self.s_star_value
            <= self.alpha * self.beta * self.cpg_benefit + 1e-6
        )

    @property
    def privileged_bounded(self) -> bool:
        """Σ P* within the Lemma 14 cap."""
        a, b = self.alpha, self.beta
        cap = (2 * a * b + a * b * (b - 1)) / ((a - 1) * (b - 1))
        return self.privileged_value <= cap * self.cpg_benefit + 1e-6

    @property
    def theorem4_certified(self) -> bool:
        bound = cpg_ratio(self.beta, self.alpha)
        return (
            self.modified_opt_benefit >= self.opt_benefit - 1e-6
            and self.modified_opt_benefit <= bound * self.cpg_benefit + 1e-6
        )


def replay_cpg_shadow(
    trace: Trace,
    config: SwitchConfig,
    cpg_result: SimulationResult,
    opt_model,
    opt_result: OptResult,
    beta: float,
    alpha: float,
) -> CPGShadowCertificate:
    """Execute Modifications 3.2.1–3.2.3 against a recorded CPG run.

    ``cpg_result`` must come from ``run_crossbar(CPGPolicy(...), ...,
    record=True)``; ``opt_model`` is the solved
    :class:`~repro.offline.crossbar_timegraph.CrossbarOptModel` (with
    ``extract_schedule=True``).
    """
    if beta <= 1.0 or alpha <= 1.0:
        raise ValueError("the Lemma 14 bound needs beta > 1 and alpha > 1")
    n_in, n_out = config.n_in, config.n_out
    b_in, b_cross, b_out = config.b_in, config.b_cross, config.b_out
    S = config.speedup

    value_of = {p.pid: p.value for p in trace.packets}
    onl_in: Dict[Tuple[int, int], List] = {}
    onl_out_tr: Dict[Tuple[int, int], List] = {}
    for ev in cpg_result.schedule_log:
        key = (ev.slot, ev.cycle)
        if ev.stage == "in":
            onl_in.setdefault(key, []).append(ev)
        elif ev.stage == "out":
            onl_out_tr.setdefault(key, []).append(ev)
    opt_y: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for t, s, i, j in opt_model.y_events:
        opt_y.setdefault((t, s), []).append((i, j))
    opt_z: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for t, s, i, j in opt_model.z_events:
        opt_z.setdefault((t, s), []).append((i, j))
    opt_accepted = set(opt_result.accepted_pids)

    onl_voq = [[_ValueQueue() for _ in range(n_out)] for _ in range(n_in)]
    onl_cross = [[_ValueQueue() for _ in range(n_out)] for _ in range(n_in)]
    onl_outq = [_ValueQueue() for _ in range(n_out)]
    opt_voq = [[_ValueQueue() for _ in range(n_out)] for _ in range(n_in)]
    opt_cross = [[_ValueQueue() for _ in range(n_out)] for _ in range(n_in)]
    opt_outq = [_ValueQueue() for _ in range(n_out)]
    out_grid = [onl_outq] * n_in

    checks = 0

    def check_all() -> None:
        nonlocal checks
        checks += 1
        for i in range(n_in):
            for j in range(n_out):
                _check_alignment(opt_voq[i][j], onl_voq[i][j], 1.0,
                                 f"VOQ ({i},{j})")
                _check_alignment(opt_cross[i][j], onl_cross[i][j], beta,
                                 f"crosspoint ({i},{j})")
        for j in range(n_out):
            _check_alignment(opt_outq[j], onl_outq[j], alpha * beta,
                             f"output {j}")

    cpg_sent = 0.0
    s_star = 0.0
    priv = [0.0, 0.0, 0.0]
    n_priv = [0, 0, 0]
    skipped_y = 0
    skipped_z = 0

    for t in range(cpg_result.horizon):
        # ---- arrival phase (CPG's PG-style rule re-derived) ----
        for p in trace.arrivals(t):
            q = onl_voq[p.src][p.dst]
            if len(q) < b_in:
                q.push(p.value)
            elif q.tail() < p.value:
                q.pop_min()
                q.push(p.value)
            if p.pid in opt_accepted:
                opt_voq[p.src][p.dst].push(p.value)
            check_all()

        # ---- scheduling phase ----
        for s in range(S):
            key = (t, s)

            # --- input subphase ---
            onl_cycle_in = onl_in.get(key, [])
            opt_cycle_y = opt_y.get(key, [])
            pre_cross_len = [
                [len(onl_cross[i][j]) for j in range(n_out)]
                for i in range(n_in)
            ]
            pre_cross_tail = [
                [onl_cross[i][j].tail() if len(onl_cross[i][j]) else None
                 for j in range(n_out)]
                for i in range(n_in)
            ]
            onl_in_dsts: Set[Tuple[int, int]] = set()
            for ev in onl_cycle_in:
                _apply_online(ev, onl_voq, onl_cross, b_cross, value_of)
                onl_in_dsts.add((ev.src, ev.dst))

            executed_y: Set[Tuple[int, int]] = set()
            for i, j in opt_cycle_y:
                if len(opt_voq[i][j]) == 0:
                    skipped_y += 1
                    continue
                v = opt_voq[i][j].pop_max()
                executed_y.add((i, j))
                if (i, j) not in onl_in_dsts:
                    # Modification 3.2.2 (Type 2): CPG did not transfer
                    # into C_ij; redirect if C_ij had room or the packet
                    # beats beta times its cheapest resident.
                    not_full = pre_cross_len[i][j] < b_cross
                    big = (
                        pre_cross_tail[i][j] is not None
                        and v > beta * pre_cross_tail[i][j] + EPS
                    )
                    if not_full or big:
                        priv[1] += v
                        n_priv[1] += 1
                        continue
                opt_cross[i][j].push(v)
                if len(opt_cross[i][j]) > b_cross:
                    raise InvariantViolation(
                        f"modified OPT overflows crosspoint ({i},{j})"
                    )

            # Modification 3.2.1 (Type 1).
            for i, j in onl_in_dsts:
                if (i, j) not in executed_y and len(opt_voq[i][j]) > 0:
                    priv[0] += opt_voq[i][j].pop_max()
                    n_priv[0] += 1

            check_all()

            # --- output subphase ---
            onl_cycle_out = onl_out_tr.get(key, [])
            opt_cycle_z = opt_z.get(key, [])
            onl_out_srcs: Set[Tuple[int, int]] = set()
            for ev in onl_cycle_out:
                _apply_online(ev, onl_cross, out_grid, b_out, value_of)
                onl_out_srcs.add((ev.src, ev.dst))

            executed_z: Set[Tuple[int, int]] = set()
            for i, j in opt_cycle_z:
                if len(opt_cross[i][j]) == 0:
                    skipped_z += 1
                    continue
                v = opt_cross[i][j].pop_max()
                executed_z.add((i, j))
                opt_outq[j].push(v)
                if len(opt_outq[j]) > b_out:
                    raise InvariantViolation(
                        f"modified OPT overflows output {j}"
                    )

            # Modification 3.2.3 (Type 3).
            for i, j in onl_out_srcs:
                if (i, j) not in executed_z and len(opt_cross[i][j]) > 0:
                    priv[2] += opt_cross[i][j].pop_max()
                    n_priv[2] += 1

            check_all()

        # ---- transmission phase (both greedy-by-value) ----
        for j in range(n_out):
            if len(opt_outq[j]) > 0:
                v_star = opt_outq[j].pop_max()
                if len(onl_outq[j]) == 0:
                    raise InvariantViolation(
                        f"OPT transmits from output {j} at slot {t} but "
                        f"CPG cannot"
                    )
                v_onl = onl_outq[j].head()
                if v_star > alpha * beta * v_onl + EPS:
                    raise InvariantViolation(
                        f"transmission pairing violated at output {j}: "
                        f"{v_star} > alpha*beta * {v_onl}"
                    )
                s_star += v_star
            if len(onl_outq[j]) > 0:
                cpg_sent += onl_outq[j].pop_max()
        check_all()

    if abs(cpg_sent - cpg_result.benefit) > 1e-6:
        raise InvariantViolation(
            f"replayed CPG benefit {cpg_sent} != recorded "
            f"{cpg_result.benefit}"
        )
    residual = (
        sum(len(opt_voq[i][j]) + len(opt_cross[i][j])
            for i in range(n_in) for j in range(n_out))
        + sum(len(q) for q in opt_outq)
    )
    if residual:
        raise InvariantViolation(
            f"modified OPT failed to drain: {residual} packets left"
        )
    total_priv = sum(priv)
    if abs(s_star + total_priv - opt_result.benefit) > 1e-6:
        raise InvariantViolation(
            f"benefit conservation broken: {s_star} + {total_priv} != "
            f"{opt_result.benefit}"
        )

    return CPGShadowCertificate(
        beta=beta,
        alpha=alpha,
        cpg_benefit=cpg_sent,
        opt_benefit=opt_result.benefit,
        s_star_value=s_star,
        privileged_value=total_priv,
        n_privileged=(n_priv[0], n_priv[1], n_priv[2]),
        skipped_y=skipped_y,
        skipped_z=skipped_z,
        invariant_checks=checks,
    )
