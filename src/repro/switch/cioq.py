"""CIOQ switch state (paper Section 1.3, Figure 1).

An N x N CIOQ switch has N input ports, each equipped with N virtual
output queues (VOQs) ``Q_ij``, and N output ports, each with a single
output queue ``Q_j``.  The switching fabric moves packets from VOQs to
output queues in scheduling cycles; in each cycle the set of transfers
must form a *matching*: at most one packet leaves each input port and at
most one packet enters each output queue.

:class:`CIOQSwitch` holds the queue state and applies phase actions that
policies decide.  It performs strict feasibility validation so that a
buggy policy cannot silently produce an inadmissible schedule — this is
the simulator-level guarantee that all measured benefits correspond to
schedules a real switch could execute.  The switch is the one place
that moves packets between queues: arrival admission and every
scheduling stage, including the two subphases of
:class:`~repro.switch.crossbar.CrossbarSwitch`, run through one
validated move.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from .config import SwitchConfig
from .packet import Packet
from .queue import BoundedQueue

# Queue labels for ScheduleError messages, formatted with the transfer's
# ports only when a move is rejected.
_VOQ = "VOQ ({i},{j})"
_OUT = "output queue {j}"


class ScheduleError(RuntimeError):
    """Raised when a policy proposes an inadmissible scheduling decision."""


class Transfer:
    """One fabric transfer decision: move ``packet`` from port pair
    ``(src, dst)``'s queue in one stage to its queue in the next.

    The stage is the call that applies it: VOQ ``Q_{src,dst}`` to output
    queue ``Q_dst`` (CIOQ cycle), ``Q_{src,dst}`` to crosspoint queue
    ``C_{src,dst}`` (crossbar input subphase), or ``C_{src,dst}`` to
    ``Q_dst`` (crossbar output subphase).  If the destination is full,
    the policy must name the packet it preempts (``preempt``); the
    switch verifies it is currently a member of that queue and removes
    it.
    """

    __slots__ = ("src", "dst", "packet", "preempt")

    def __init__(
        self, src: int, dst: int, packet: Packet, preempt: Optional[Packet] = None
    ):
        self.src = src
        self.dst = dst
        self.packet = packet
        self.preempt = preempt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = f"Transfer({self.src}->{self.dst}, pid={self.packet.pid}"
        if self.preempt is not None:
            s += f", preempt pid={self.preempt.pid}"
        return s + ")"


class CIOQSwitch:
    """Mutable queue state of a CIOQ switch."""

    def __init__(self, config: SwitchConfig):
        self.config = config
        self.n_in, self.n_out = config.n_in, config.n_out
        #: VOQs indexed ``voq[i][j]`` = Q_ij.
        self.voq: List[List[BoundedQueue]] = self._grid(config.b_in)
        #: Output queues indexed ``out[j]`` = Q_j.
        self.out = [BoundedQueue(config.b_out) for _ in range(self.n_out)]
        # Q_j as ``_out_grid[i][j]`` for every input i, so a stage
        # addresses its destination by port pair just like its source.
        self._out_grid = [self.out] * self.n_in
        # Flattened queue stages in buffered_packets() order: VOQ grid,
        # crosspoint grid (empty here; CrossbarSwitch fills it), output
        # queues.  The item-list views are cached once: occupancy_totals()
        # runs every slot when the occupancy trace or per-slot metric
        # sampling is on, so it must not rebuild the grid walk.
        self._stages: List[List[BoundedQueue]] = [
            [q for row in self.voq for q in row], [], self.out]
        self._stage_items = [[q._items for q in s] for s in self._stages]

    def _grid(self, capacity: int) -> List[List[BoundedQueue]]:
        """An ``n_in x n_out`` grid of empty queues of one capacity."""
        return [[BoundedQueue(capacity) for _ in range(self.n_out)]
                for _ in range(self.n_in)]

    # -- inspection ---------------------------------------------------------

    def voq_lengths(self) -> List[List[int]]:
        return [[len(q) for q in row] for row in self.voq]

    def out_lengths(self) -> List[int]:
        return [len(q) for q in self.out]

    def buffered_packets(self) -> List[Packet]:
        """All packets currently residing somewhere in the switch: VOQ
        grid, then crosspoint grid, then output queues, each queue from
        head to tail (``value_residual`` is summed in this order)."""
        residents: List[Packet] = []
        for stage in self._stages:
            for q in stage:
                residents.extend(q.packets())
        return residents

    def is_drained(self) -> bool:
        """True when every queue in the switch is empty."""
        return all(q.is_empty for stage in self._stages for q in stage)

    def occupancy_totals(self) -> Tuple[int, int, int]:
        """End-of-slot totals ``(voq, cross, out)`` for the occupancy trace.

        The CIOQ model has no crosspoint buffers, so its ``cross``
        column is always 0 (see the ``occupancy`` schema documented in
        :class:`~repro.simulation.results.SimulationResult`).
        """
        voq, cross, out = self._stage_items
        return sum(map(len, voq)), sum(map(len, cross)), sum(map(len, out))

    # -- phase actions ------------------------------------------------------

    def enqueue_arrival(self, p: Packet, preempt: Optional[Packet] = None) -> None:
        """Admit an accepted packet into its VOQ, first discarding the
        policy's named ``preempt`` victim; raises :class:`ScheduleError`
        if the victim is not in that VOQ or the VOQ is full without one."""
        self._move((Transfer(p.src, p.dst, p, preempt),), None, self.voq,
                   False, False, "arrival", _VOQ, _VOQ)

    def apply_transfers(self, transfers: Sequence[Transfer]) -> None:
        """Execute one scheduling cycle's matching.

        Validates the matching property (each input port releases at most
        one packet, each output queue admits at most one packet), packet
        membership, and output capacity (possibly after a declared
        preemption).
        """
        self._move(transfers, self.voq, self._out_grid, True, True,
                   "scheduling cycle", _VOQ, _OUT)

    def _move(self, transfers: Sequence[Transfer],
              src_grid: Optional[List[List[BoundedQueue]]],
              dst_grid: List[List[BoundedQueue]],
              once_in: bool, once_out: bool, stage: str,
              src_name: str, dst_name: str) -> None:
        """The one validated queue move behind every phase action.

        Moves each transfer's packet from ``src_grid[src][dst]``
        (``None``: an arrival from outside the switch) into
        ``dst_grid[src][dst]``: find it, drop the named victim, check
        capacity, insert sorted, with the BoundedQueue primitives
        inlined.  ``once_in`` / ``once_out`` allow each input / output
        port once per call.  A violation raises :class:`ScheduleError`,
        which aborts the run, so validation may interleave with moves.
        """
        n_in, n_out = self.n_in, self.n_out
        used_in = set() if once_in else None
        used_out = set() if once_out else None
        for tr in transfers:
            i, j = tr.src, tr.dst
            if not (0 <= i < n_in and 0 <= j < n_out):
                raise ScheduleError(f"{stage} ports out of range: {tr!r}")
            if used_in is not None:
                if i in used_in:
                    raise ScheduleError(
                        f"input port {i} used twice in one {stage}")
                used_in.add(i)
            if used_out is not None:
                if j in used_out:
                    raise ScheduleError(
                        f"output port {j} used twice in one {stage}")
                used_out.add(j)

            pk = tr.packet
            if src_grid is not None:
                src_q = src_grid[i][j]
                skeys = src_q._keys
                sitems = src_q._items
                idx = bisect_left(skeys, pk._key)
                if idx >= len(sitems) or sitems[idx].pid != pk.pid:
                    raise ScheduleError(
                        f"packet {pk.pid} not in {src_name.format(i=i, j=j)}")
            dst_q = dst_grid[i][j]
            dkeys = dst_q._keys
            ditems = dst_q._items
            victim = tr.preempt
            if victim is not None:
                vidx = bisect_left(dkeys, victim._key)
                if vidx >= len(ditems) or ditems[vidx].pid != victim.pid:
                    raise ScheduleError(
                        f"preemption victim {victim.pid} not in "
                        f"{dst_name.format(i=i, j=j)}")
                del dkeys[vidx]
                del ditems[vidx]
            if len(ditems) >= dst_q.capacity:
                raise ScheduleError(
                    f"packet {pk.pid} moved into full "
                    f"{dst_name.format(i=i, j=j)} without naming a "
                    f"preemption victim")
            if src_grid is not None:
                del skeys[idx]
                pk = sitems.pop(idx)
            key = pk._key
            didx = bisect_left(dkeys, key)
            dkeys.insert(didx, key)
            ditems.insert(didx, pk)

    def transmit(self, selections: Dict[int, Packet]) -> List[Packet]:
        """Execute the transmission phase: at most one packet per output.

        ``selections`` maps output port -> packet to send.  Returns the
        sent packets.
        """
        sent: List[Packet] = []
        n_out, out = self.n_out, self.out
        for j, p in selections.items():
            if not (0 <= j < n_out):
                raise ScheduleError(f"transmit port {j} out of range")
            q = out[j]
            keys = q._keys
            items = q._items
            idx = bisect_left(keys, p._key)
            if idx >= len(items) or items[idx].pid != p.pid:
                raise ScheduleError(f"packet {p.pid} not in output queue {j}")
            del keys[idx]
            sent.append(items.pop(idx))
        return sent

    # -- invariants ---------------------------------------------------------

    def check_invariants(self) -> None:
        for stage in self._stages:
            for q in stage:
                q.check_invariants()


def greedy_head_transmissions(switch: CIOQSwitch) -> Dict[int, Packet]:
    """Default transmission rule: send the head (max value) of every
    non-empty output queue.  This is the transmission phase of all four
    paper algorithms (for unit values, "head" is just any packet)."""
    sel: Dict[int, Packet] = {}
    for j, q in enumerate(switch.out):
        items = q._items
        if items:
            sel[j] = items[-1]
    return sel
