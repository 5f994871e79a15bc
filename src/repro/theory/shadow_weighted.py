"""Executable replay of Theorem 2's modified-OPT construction (weighted).

Extends :mod:`repro.theory.shadow` to the general-value CIOQ case: PG
versus an offline optimum modified by Modifications 2.2.1–2.2.3, with
the *positional value-alignment* invariants of Lemma 4 checked after
every event:

* I1: |Q*_ij| <= |Q_ij| and v(δ*_ij(k)) <= v(δ_ij(k)) for every
  position k (each OPT packet is aligned to an online packet of at
  least its value in the same VOQ),
* I2: |Q*_j| <= |Q_j| and v(δ*_j(k)) <= β v(δ_j(k)) at every output.

On unit values this is Theorem 1's construction, so
:func:`~repro.theory.shadow.replay_gm_shadow` runs this replay on GM's
log.

The offline schedule comes from the exact MILP; because the time-
expanded model is anonymous within each (i, j) chain, *any* departure
order is feasible, so the replay applies Assumption A1 (OPT releases
the most valuable packet of a queue first) literally, exactly as the
proof assumes.

Certificate checks (instance-level Theorem 2):

* Lemma 4 invariants hold at every event (else
  :class:`~repro.theory.shadow.InvariantViolation`),
* whenever modified OPT transmits value v from output j, PG transmits
  value >= v / β from j in the same slot (the I2 consequence),
* Σ S* <= β Σ S and Σ P* <= 2β/(β−1) Σ S (Lemma 7's aggregate),
* benefit conservation: S* + P* equals OPT's true benefit, so
  OPT <= (β + 2β/(β−1)) · PG on the instance.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..offline.timegraph import OptResult
from ..simulation.results import SimulationResult
from ..switch.config import SwitchConfig
from ..traffic.trace import Trace
from .shadow import InvariantViolation

EPS = 1e-9


@dataclass
class PGShadowCertificate:
    """Accounting of one Lemma 4 / Lemma 7 replay."""

    beta: float
    pg_benefit: float
    opt_benefit: float
    s_star_value: float        #: value of modified OPT's normal transmissions
    privileged_value: float    #: total value of Types 1-3 privileged packets
    n_privileged: Tuple[int, int, int]
    skipped_departures: int
    invariant_checks: int

    @property
    def modified_opt_benefit(self) -> float:
        return self.s_star_value + self.privileged_value

    @property
    def s_star_bounded(self) -> bool:
        """Σ S* <= β Σ S (consequence of Lemma 4 I2)."""
        return self.s_star_value <= self.beta * self.pg_benefit + 1e-6

    @property
    def privileged_bounded(self) -> bool:
        """Σ P* <= 2β/(β−1) Σ S (Lemma 7)."""
        cap = 2.0 * self.beta / (self.beta - 1.0)
        return self.privileged_value <= cap * self.pg_benefit + 1e-6

    @property
    def theorem2_certified(self) -> bool:
        ratio_bound = self.beta + 2.0 * self.beta / (self.beta - 1.0)
        return (
            self.modified_opt_benefit >= self.opt_benefit - 1e-6
            and self.modified_opt_benefit
            <= ratio_bound * self.pg_benefit + 1e-6
        )


class _ValueQueue:
    """A queue as a descending-sorted list of values (Assumption A3)."""

    __slots__ = ("vals",)

    def __init__(self):
        self.vals: List[float] = []  # ascending; head is vals[-1]

    def __len__(self) -> int:
        return len(self.vals)

    def push(self, v: float) -> None:
        insort(self.vals, v)

    def pop_max(self) -> float:
        return self.vals.pop()

    def pop_min(self) -> float:
        return self.vals.pop(0)

    def head(self) -> float:
        return self.vals[-1]

    def tail(self) -> float:
        return self.vals[0]

    def descending(self) -> List[float]:
        return self.vals[::-1]


def _check_alignment(q_star: _ValueQueue, q_onl: _ValueQueue,
                     factor: float, where: str) -> None:
    """Positional dominance: v(δ*(k)) <= factor * v(δ(k)) for all k."""
    if len(q_star) > len(q_onl):
        raise InvariantViolation(
            f"Lemma 4 length violated at {where}: "
            f"|Q*|={len(q_star)} > |Q|={len(q_onl)}"
        )
    star = q_star.descending()
    onl = q_onl.descending()
    for k, v_star in enumerate(star):
        if v_star > factor * onl[k] + EPS:
            raise InvariantViolation(
                f"Lemma 4 alignment violated at {where}, position {k + 1}: "
                f"{v_star} > {factor} * {onl[k]}"
            )


def _apply_online(ev, src_grid, dst_grid, cap: int,
                  value_of: Dict[int, float]) -> float:
    """Apply one recorded online transfer to the replayed queues.

    Moves the head of ``src_grid[ev.src][ev.dst]``, which must be the
    logged packet, into ``dst_grid[ev.src][ev.dst]`` after dropping the
    logged preemption victim, and returns its value.  Output queues are
    addressed as the grid ``[out] * n_in``.  A log that does not fit the
    replay (an unknown pid, an empty or mismatched source queue, or an
    overflow) raises :class:`InvariantViolation`.
    """
    q, dst = src_grid[ev.src][ev.dst], dst_grid[ev.src][ev.dst]
    v = value_of.get(ev.pid)
    if v is None or len(q) == 0 or abs(q.head() - v) > EPS:
        raise InvariantViolation(
            f"online log inconsistent: {ev.stage} transfer of pid {ev.pid} "
            f"(value {v}) from ({ev.src},{ev.dst}) at slot {ev.slot}, cycle "
            f"{ev.cycle}, but the replayed queue holds {q.descending()}"
        )
    if ev.preempted_pid is not None:
        dst.pop_min()
    if len(dst) >= cap:
        raise InvariantViolation(
            f"online {ev.stage} transfer from ({ev.src},{ev.dst}) at slot "
            f"{ev.slot}, cycle {ev.cycle} overflows its destination queue"
        )
    g = q.pop_max()
    dst.push(g)
    return g


def replay_pg_shadow(
    trace: Trace,
    config: SwitchConfig,
    pg_result: SimulationResult,
    opt_result: OptResult,
    beta: float,
) -> PGShadowCertificate:
    """Execute Modifications 2.2.1–2.2.3 against a recorded PG run.

    ``pg_result`` must come from ``run_cioq(PGPolicy(beta=...), ...,
    record=True)`` and ``opt_result`` from ``cioq_opt(...,
    extract_schedule=True)`` on the same instance.
    """
    if beta <= 1.0:
        raise ValueError("the Lemma 7 bound needs beta > 1")
    n_in, n_out = config.n_in, config.n_out
    b_in, b_out = config.b_in, config.b_out
    S = config.speedup

    value_of = {p.pid: p.value for p in trace.packets}
    onl_events: Dict[Tuple[int, int], List] = {}
    for ev in pg_result.schedule_log:
        onl_events.setdefault((ev.slot, ev.cycle), []).append(ev)
    opt_departures: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for t, s, i, j in opt_result.departures:
        opt_departures.setdefault((t, s), []).append((i, j))
    opt_accepted = set(opt_result.accepted_pids)

    onl_voq = [[_ValueQueue() for _ in range(n_out)] for _ in range(n_in)]
    onl_out = [_ValueQueue() for _ in range(n_out)]
    opt_voq = [[_ValueQueue() for _ in range(n_out)] for _ in range(n_in)]
    opt_out = [_ValueQueue() for _ in range(n_out)]
    out_grid = [onl_out] * n_in

    checks = 0

    def check_all() -> None:
        nonlocal checks
        checks += 1
        for i in range(n_in):
            for j in range(n_out):
                _check_alignment(opt_voq[i][j], onl_voq[i][j], 1.0,
                                 f"VOQ ({i},{j})")
        for j in range(n_out):
            _check_alignment(opt_out[j], onl_out[j], beta, f"output {j}")

    pg_sent = 0.0
    s_star = 0.0
    priv = [0.0, 0.0, 0.0]
    n_priv = [0, 0, 0]
    skipped = 0

    for t in range(pg_result.horizon):
        # ---- arrival phase (PG's rule re-derived; OPT from accept set) ----
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
            onl_cycle = onl_events.get((t, s), [])
            opt_cycle = opt_departures.get((t, s), [])
            pre_out_len = [len(onl_out[j]) for j in range(n_out)]
            pre_out_tail = [
                onl_out[j].tail() if len(onl_out[j]) else None
                for j in range(n_out)
            ]

            # Apply the online transfers from the recorded log.
            onl_value_to: Dict[int, float] = {}
            onl_from: set = set()
            for ev in onl_cycle:
                onl_value_to[ev.dst] = _apply_online(ev, onl_voq, out_grid,
                                                     b_out, value_of)
                onl_from.add((ev.src, ev.dst))

            # OPT's normal departures under Assumption A1 (greatest value
            # first), with Modifications 2.2.2 / 2.2.3 applied inline.
            executed: set = set()
            for i, j in opt_cycle:
                if len(opt_voq[i][j]) == 0:
                    skipped += 1
                    continue
                v = opt_voq[i][j].pop_max()
                executed.add((i, j))
                if j in onl_value_to:
                    if onl_value_to[j] < v - EPS:
                        priv[1] += v  # Modification 2.2.2 (Type 2)
                        n_priv[1] += 1
                        continue
                else:
                    not_full = pre_out_len[j] < b_out
                    big = (
                        pre_out_tail[j] is not None
                        and v > beta * pre_out_tail[j] + EPS
                    )
                    if not_full or big:
                        priv[2] += v  # Modification 2.2.3 (Type 3)
                        n_priv[2] += 1
                        continue
                opt_out[j].push(v)
                if len(opt_out[j]) > b_out:
                    raise InvariantViolation(
                        f"modified OPT overflows output {j}"
                    )

            # Modification 2.2.1 (Type 1): PG transferred from Q_ij, OPT
            # did not transfer from Q*_ij, and Q*_ij is non-empty.
            for i, j in onl_from:
                if (i, j) not in executed and len(opt_voq[i][j]) > 0:
                    priv[0] += opt_voq[i][j].pop_max()
                    n_priv[0] += 1

            check_all()

        # ---- transmission phase (both greedy-by-value, A2) ----
        for j in range(n_out):
            if len(opt_out[j]) > 0:
                v_star = opt_out[j].pop_max()
                if len(onl_out[j]) == 0:
                    raise InvariantViolation(
                        f"OPT transmits from output {j} at slot {t} but PG "
                        f"cannot"
                    )
                v_onl = onl_out[j].head()
                if v_star > beta * v_onl + EPS:
                    raise InvariantViolation(
                        f"transmission pairing violated at output {j}: "
                        f"{v_star} > beta * {v_onl}"
                    )
                s_star += v_star
            if len(onl_out[j]) > 0:
                pg_sent += onl_out[j].pop_max()
        check_all()

    if abs(pg_sent - pg_result.benefit) > 1e-6:
        raise InvariantViolation(
            f"replayed PG benefit {pg_sent} != recorded {pg_result.benefit}"
        )
    residual = (
        sum(len(opt_voq[i][j]) for i in range(n_in) for j in range(n_out))
        + sum(len(q) for q in opt_out)
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

    return PGShadowCertificate(
        beta=beta,
        pg_benefit=pg_sent,
        opt_benefit=opt_result.benefit,
        s_star_value=s_star,
        privileged_value=total_priv,
        n_privileged=(n_priv[0], n_priv[1], n_priv[2]),
        skipped_departures=skipped,
        invariant_checks=checks,
    )
