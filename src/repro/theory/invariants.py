"""Algorithm-faithfulness checkers.

Wrappers that verify, decision by decision, that a policy implementation
obeys the paper's specification: edge eligibility, maximality of the
greedy matching, weight-ordering, and the preemption rules.  Used by
tests and available to any simulation via ``check_faithfulness``-style
wrapping — a policy bug then fails loudly at the first unfaithful
decision instead of skewing measured ratios.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..scheduling.base import ArrivalDecision, CIOQPolicy, CrossbarPolicy
from ..switch.cioq import CIOQSwitch, Transfer
from ..switch.crossbar import CrossbarSwitch
from ..switch.packet import Packet


class FaithfulnessError(AssertionError):
    """A policy decision violated the paper's specification."""


def _gm_eligible_edges(switch: CIOQSwitch) -> Set[Tuple[int, int]]:
    """Edge set of G_{T[s]} for the unit-value case (Section 2.1)."""
    return {
        (i, j)
        for i in range(switch.n_in)
        for j in range(switch.n_out)
        if not switch.voq[i][j].is_empty and not switch.out[j].is_full
    }


def _pg_eligible(switch: CIOQSwitch, beta: float, i: int, j: int) -> Optional[Packet]:
    """g_ij if edge (i, j) is in PG's G_{T[s]} (Section 2.2), else None."""
    g = switch.voq[i][j].head()
    if g is None:
        return None
    out_q = switch.out[j]
    if not out_q.is_full:
        return g
    tail = out_q.tail()
    if tail is not None and g.value > beta * tail.value:
        return g
    return None


def check_tail_drop_arrival(
    name: str, switch: CIOQSwitch, packet: Packet, decision: ArrivalDecision
) -> None:
    """The arrival rule GM and CGU share (Sections 2.1 and 3.1): accept
    iff the VOQ is not full, and never preempt."""
    full = switch.voq[packet.src][packet.dst].is_full
    if decision.accept and full:
        raise FaithfulnessError(f"{name} accepted into a full VOQ")
    if not decision.accept and not full:
        raise FaithfulnessError(f"{name} rejected though the VOQ has space")
    if decision.preempt is not None:
        raise FaithfulnessError(f"{name} must never preempt on arrival")


def check_matching_property(transfers: List[Transfer]) -> None:
    """At most one packet per input port and per output queue."""
    ins = [tr.src for tr in transfers]
    outs = [tr.dst for tr in transfers]
    if len(set(ins)) != len(ins):
        raise FaithfulnessError(f"input port matched twice: {sorted(ins)}")
    if len(set(outs)) != len(outs):
        raise FaithfulnessError(f"output port matched twice: {sorted(outs)}")


def check_gm_cycle(switch: CIOQSwitch, transfers: List[Transfer]) -> None:
    """Verify one GM scheduling decision against the pre-cycle state.

    Checks: matching property; every matched edge eligible; no
    preemptions; *maximality* — no eligible edge has both ports free.
    """
    check_matching_property(transfers)
    eligible = _gm_eligible_edges(switch)
    used_i = {tr.src for tr in transfers}
    used_j = {tr.dst for tr in transfers}
    for tr in transfers:
        if (tr.src, tr.dst) not in eligible:
            raise FaithfulnessError(
                f"GM matched ineligible edge ({tr.src},{tr.dst})"
            )
        if tr.preempt is not None:
            raise FaithfulnessError("GM must never preempt")
    for i, j in eligible:
        if i not in used_i and j not in used_j:
            raise FaithfulnessError(
                f"GM matching is not maximal: edge ({i},{j}) addable"
            )


def check_pg_cycle(
    switch: CIOQSwitch, transfers: List[Transfer], beta: float
) -> None:
    """Verify one PG scheduling decision against the pre-cycle state.

    Checks: matching property; edges eligible under the beta rule; the
    transferred packet is g_ij; preemption declared exactly when the
    output queue is full and names l_j; maximality w.r.t. PG's edge
    set; and the *greedy-by-weight* property — for every matched edge,
    no strictly heavier eligible edge sharing a port was skippable
    (equivalently, the matching is obtainable by the descending-weight
    scan, which we check via the standard local condition: each
    unmatched eligible edge must share a port with a matched edge of
    weight >= its own).
    """
    check_matching_property(transfers)
    eligible: Dict[Tuple[int, int], Packet] = {}
    for i in range(switch.n_in):
        for j in range(switch.n_out):
            g = _pg_eligible(switch, beta, i, j)
            if g is not None:
                eligible[(i, j)] = g

    used_i: Dict[int, float] = {}
    used_j: Dict[int, float] = {}
    for tr in transfers:
        key = (tr.src, tr.dst)
        if key not in eligible:
            raise FaithfulnessError(f"PG matched ineligible edge {key}")
        g = eligible[key]
        if tr.packet.pid != g.pid:
            raise FaithfulnessError(
                f"PG must transfer g_ij (pid {g.pid}), transferred "
                f"pid {tr.packet.pid}"
            )
        out_q = switch.out[tr.dst]
        if out_q.is_full:
            lj = out_q.tail()
            assert lj is not None
            if tr.preempt is None or tr.preempt.pid != lj.pid:
                raise FaithfulnessError(
                    f"PG must preempt l_j (pid {lj.pid}) when inserting into "
                    f"full output {tr.dst}"
                )
        elif tr.preempt is not None:
            raise FaithfulnessError(
                f"PG declared a preemption into non-full output {tr.dst}"
            )
        used_i[tr.src] = g.value
        used_j[tr.dst] = g.value

    for (i, j), g in eligible.items():
        blocked_i = i in used_i
        blocked_j = j in used_j
        if not blocked_i and not blocked_j:
            raise FaithfulnessError(
                f"PG matching not maximal: eligible edge ({i},{j}) addable"
            )
        # Greedy-by-weight: a skipped edge must be blocked by an edge of
        # weight >= its own (ties broken deterministically are allowed).
        if blocked_i and used_i[i] < g.value - 1e-12 and (
            not blocked_j or used_j[j] < g.value - 1e-12
        ):
            raise FaithfulnessError(
                f"PG skipped edge ({i},{j}) of weight {g.value} though all "
                f"blocking edges are lighter"
            )
        if blocked_j and used_j[j] < g.value - 1e-12 and (
            not blocked_i or used_i[i] < g.value - 1e-12
        ):
            raise FaithfulnessError(
                f"PG skipped edge ({i},{j}) of weight {g.value} though all "
                f"blocking edges are lighter"
            )


class CheckedCIOQPolicy(CIOQPolicy):
    """Wrapper running per-cycle faithfulness checks on GM or PG."""

    def __init__(self, inner: CIOQPolicy, kind: str, beta: float = 1.0):
        if kind not in ("gm", "pg"):
            raise ValueError("kind must be 'gm' or 'pg'")
        self.inner = inner
        self.kind = kind
        self.beta = beta
        self.name = f"checked[{inner.name}]"

    def reset(self, switch: CIOQSwitch) -> None:
        self.inner.reset(switch)

    def on_arrival(self, switch: CIOQSwitch, packet: Packet) -> ArrivalDecision:
        decision = self.inner.on_arrival(switch, packet)
        if self.kind == "gm":
            check_tail_drop_arrival("GM", switch, packet, decision)
        else:
            q = switch.voq[packet.src][packet.dst]
            tail = q.tail()
            should_accept = (not q.is_full) or (
                tail is not None and tail.value < packet.value
            )
            if decision.accept != should_accept:
                raise FaithfulnessError(
                    f"PG arrival rule violated for packet {packet.pid}"
                )
            if decision.accept and q.is_full:
                if decision.preempt is None or decision.preempt.pid != tail.pid:
                    raise FaithfulnessError(
                        "PG must preempt l_ij when accepting into a full VOQ"
                    )
        return decision

    def schedule(self, switch: CIOQSwitch, slot: int, cycle: int) -> List[Transfer]:
        transfers = self.inner.schedule(switch, slot, cycle)
        if self.kind == "gm":
            check_gm_cycle(switch, transfers)
        else:
            check_pg_cycle(switch, transfers, self.beta)
        return transfers

    def select_transmissions(self, switch: CIOQSwitch) -> Dict[int, Packet]:
        selections = self.inner.select_transmissions(switch)
        for j, q in enumerate(switch.out):
            head = q.head()
            if head is None:
                if j in selections:
                    raise FaithfulnessError(f"transmission from empty output {j}")
            else:
                if j not in selections:
                    raise FaithfulnessError(
                        f"work-conservation violated: output {j} non-empty but idle"
                    )
                if selections[j].value < head.value - 1e-12:
                    raise FaithfulnessError(
                        f"transmission from output {j} is not the head packet"
                    )
        return selections


def check_cgu_input_subphase(
    switch: CrossbarSwitch, transfers: List[Transfer]
) -> None:
    """CGU input subphase: per input, one transfer from an eligible VOQ,
    and none only if no VOQ is eligible."""
    by_input: Dict[int, Transfer] = {}
    for tr in transfers:
        if tr.src in by_input:
            raise FaithfulnessError(f"input {tr.src} released two packets")
        by_input[tr.src] = tr
        if switch.voq[tr.src][tr.dst].is_empty:
            raise FaithfulnessError("CGU transferred from an empty VOQ")
        if switch.cross[tr.src][tr.dst].is_full:
            raise FaithfulnessError("CGU transferred into a full crosspoint")
        if tr.preempt is not None:
            raise FaithfulnessError("CGU must never preempt")
    for i in range(switch.n_in):
        if i in by_input:
            continue
        for j in range(switch.n_out):
            if not switch.voq[i][j].is_empty and not switch.cross[i][j].is_full:
                raise FaithfulnessError(
                    f"CGU idle at input {i} though VOQ ({i},{j}) is eligible"
                )


def check_cgu_output_subphase(
    switch: CrossbarSwitch, transfers: List[Transfer]
) -> None:
    """CGU output subphase: per output, one transfer from a non-empty
    crosspoint while the output queue has room; none only if impossible."""
    by_output: Dict[int, Transfer] = {}
    for tr in transfers:
        if tr.dst in by_output:
            raise FaithfulnessError(f"output {tr.dst} admitted two packets")
        by_output[tr.dst] = tr
        if switch.cross[tr.src][tr.dst].is_empty:
            raise FaithfulnessError("CGU transferred from an empty crosspoint")
        if switch.out[tr.dst].is_full:
            raise FaithfulnessError("CGU transferred into a full output queue")
        if tr.preempt is not None:
            raise FaithfulnessError("CGU must never preempt")
    for j in range(switch.n_out):
        if j in by_output or switch.out[j].is_full:
            continue
        for i in range(switch.n_in):
            if not switch.cross[i][j].is_empty:
                raise FaithfulnessError(
                    f"CGU idle at output {j} though crosspoint ({i},{j}) is "
                    f"non-empty"
                )


class CheckedCGUPolicy(CrossbarPolicy):
    """Wrapper running per-subphase faithfulness checks on CGU."""

    def __init__(self, inner: CrossbarPolicy):
        self.inner = inner
        self.name = f"checked[{inner.name}]"

    def reset(self, switch: CrossbarSwitch) -> None:
        self.inner.reset(switch)

    def on_arrival(self, switch: CrossbarSwitch, packet: Packet) -> ArrivalDecision:
        decision = self.inner.on_arrival(switch, packet)
        check_tail_drop_arrival("CGU", switch, packet, decision)
        return decision

    def input_subphase(
        self, switch: CrossbarSwitch, slot: int, cycle: int
    ) -> List[Transfer]:
        transfers = self.inner.input_subphase(switch, slot, cycle)
        check_cgu_input_subphase(switch, transfers)
        return transfers

    def output_subphase(
        self, switch: CrossbarSwitch, slot: int, cycle: int
    ) -> List[Transfer]:
        transfers = self.inner.output_subphase(switch, slot, cycle)
        check_cgu_output_subphase(switch, transfers)
        return transfers
