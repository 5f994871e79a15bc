"""Vectorized numpy kernel for the slot loop (the fast kernel).

This module re-implements :func:`repro.simulation.kernel.run_slot_loop`
for the paper's four policies (GM, PG, CGU, CPG) as a *lockstep batch*
over many traces ("lanes") at once, with all queue state held in
structure-of-arrays numpy buffers:

* a batch knows all its packets up front, so its set-up ranks them
  once by the packet key ``(value, -pid)`` (Assumption A3,
  :meth:`~repro.switch.packet.Packet.sort_key`): the packets are ranks
  ``1..n`` and, within a lane, a higher rank is a better packet; rank 0
  means "no packet".  Every comparison and tie-break of the four
  policies is then one integer operation.  Values come back from one
  rank -> value column, read only by the float accounting;
* every queue family (VOQs, crosspoint queues, output queues) is an
  int32 rank array with a leading lane axis ``S``, one zero-padded
  row per queue holding its ranks ascending at the row's end — head
  last, a full queue's preemption tail first, the order of
  :class:`repro.switch.queue.BoundedQueue` — plus every queue's length
  and head rank, which its mutators keep.  An insert writes the rank
  into the free first entry and sorts the row, a pop shifts it right;
* value thresholds are compared in rank space: ``v(x) > f * v(w)``
  holds iff ``x > above[w]``, where the table ``above`` (one
  ``searchsorted`` over the sorted values per factor ``f``) counts the
  packets worth at most ``f * v(w)``.  So the push-out rule, PG's and
  CPG's admission tests and CPG's best-head picks are integer compares
  and ``argmax``es over dense rank arrays, masked by multiplying;
* arrival admission, queue pushes/pops and transmissions are batched
  numpy operations across lanes and ports, touching only the sparse set
  of non-empty queues;
* PG's greedy maximal weighted matching scans one distinct integer key
  per edge, value class descending and then cell ascending: a few
  locally-dominant rounds over the sparse edge list as array
  operations, then a sequential walk over the few edges left
  (:func:`greedy_matching`); GM's rotating scan packs per-cycle
  eligibility into per-row Python int bitmasks (``np.packbits``), so it
  costs O(ports), not O(ports^2);
* the accounting is arrays too, and every float accumulator receives
  the reference kernel's IEEE adds in its order: arrivals set a one-byte
  acceptance mask over the batch's event columns, and preemptions log
  their victims' ranks, whose values each lane sums once at the end by a
  sequential ``np.cumsum`` (``np.sum`` adds pairwise and would round
  differently); ``benefit`` adds a slot's transmissions through a
  zero-padded ``[S, NJ + 1]`` row cumsum, and each output's value total
  takes at most one add per slot.  A lane's buffered count, which
  decides its retirement, is its queue-length total; a retiring lane's
  residual packets are summed then and its queues emptied, so no
  stepper masks out retired lanes.

The contract is **bit-identical equality** with the reference kernel on
every observable :class:`~repro.simulation.results.SimulationResult`
field; ``tests/test_backend_equivalence.py`` pins it differentially
across the whole scenario registry and a property-based random matrix.

Features the reference kernel has that this kernel deliberately does
not (requesting them raises
:class:`~repro.simulation.backends.BackendUnsupported`, and the engine
falls back to the reference kernel): ``record=True`` event logs,
``check_invariants=True``, ``timed`` recorders (per-phase wall-times),
policy classes outside :data:`SUPPORTED_POLICIES` — the comparison
baselines among them — and batches of more packets than
:data:`_RANK_DTYPE` can number.  Streaming
sources never reach it: the streaming entries run the reference kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..core.cgu import CGUPolicy
from ..core.cpg import CPGPolicy
from ..core.gm import GMPolicy
from ..core.pg import PGPolicy
from ..switch.config import SwitchConfig
from ..traffic.trace import Trace
from .backends import BackendUnsupported
from .engine import drain_bound
from .results import SimulationResult

#: Packet ranks (and the rank-space threshold tables) are int32: half
#: the traffic of the ``(value, pid)`` pair they replace.  A batch of
#: more packets than its maximum raises :class:`BackendUnsupported`.
_RANK_DTYPE = np.int32

#: Queue lengths are int16 (capacities are per-queue buffer sizes);
#: the narrow dtype makes the hot ``len < B`` comparisons several times
#: cheaper.  A capacity above its maximum raises
#: :class:`BackendUnsupported`, so the engine falls back.
_LEN_DTYPE = np.int16


# ---------------------------------------------------------------------------
# Structure-of-arrays queue family
# ---------------------------------------------------------------------------

class _QueueFamily:
    """``S x Q`` bounded queues of capacity ``B`` holding packet ranks.

    Each queue is a right-aligned row ``rank[s, q]``: its ``len``
    ranks ascending at the row's end, zeros ("no packet") in front.
    So the head is the row's last entry, a full queue's tail is its
    first, and a queue with room has a zero in its first entry.
    ``len`` and ``head`` cache each queue's length and head rank (0
    when empty) for the dense scans, and the mutators keep them.  The
    mutators address queue ``(s, q)`` by its flat index ``s * Q + q``.
    """

    __slots__ = ("rank", "len", "head", "B", "_flat", "_rows", "_lens",
                 "_heads")

    def __init__(self, S: int, Q: int, B: int):
        self.rank = np.zeros((S, Q, B), dtype=_RANK_DTYPE)
        self.len = np.zeros((S, Q), dtype=_LEN_DTYPE)
        self.head = np.zeros((S, Q), dtype=_RANK_DTYPE)
        self.B = B
        self._flat = self.rank.reshape(-1)
        self._rows = self.rank.reshape(S * Q, B)
        self._lens = self.len.reshape(-1)
        self._heads = self.head.reshape(-1)

    def tails(self) -> np.ndarray:
        """Every queue's first entry ``[S, Q]``: the tail rank of a
        full queue, 0 of any other.  A view that the mutators change."""
        return self.rank[:, :, 0]

    def tails_at(self, f: np.ndarray) -> np.ndarray:
        """The first entries of queues ``f`` (flat indices): their tail
        ranks where they are full."""
        return self._flat.take(f * self.B)

    # All flat indices handed to the mutators below must be unique
    # within one call — the scatter-back would otherwise race.

    def insert(self, f: np.ndarray, r: np.ndarray) -> None:
        """Sorted-insert rank ``r[k]`` into queue ``f[k]``, which must
        have room."""
        if len(f) == 0:
            return
        # A queue with room has a zero first entry: put the packet there
        # and sort it into place.
        rows = self._rows.take(f, axis=0)             # [K, B] gather
        rows[:, 0] = r
        rows.sort(axis=1)
        self._rows[f] = rows
        self._lens[f] += np.int16(1)
        self._heads[f] = rows[:, -1]

    def delete_tails(self, f: np.ndarray) -> None:
        """Remove the tail (least valuable) packet of each queue, which
        must be full: a preemption victim."""
        if len(f) == 0:
            return
        self._flat[f * self.B] = 0
        ln = self._lens.take(f) - np.int16(1)
        self._lens[f] = ln
        self._heads[f] *= ln > 0

    def pop_heads(self, f: np.ndarray) -> np.ndarray:
        """Remove and return the head (highest-rank) packet of each
        queue."""
        rows = self._rows.take(f, axis=0)
        # Shift each row right by one: the entry below becomes the head.
        shifted = np.empty_like(rows)
        shifted[:, 0] = 0
        shifted[:, 1:] = rows[:, :-1]
        self._rows[f] = shifted
        self._lens[f] -= np.int16(1)
        self._heads[f] = shifted[:, -1]
        return rows[:, -1]

    def lane_ranks(self, s: int) -> np.ndarray:
        """Lane ``s``'s buffered ranks, queue by queue, each head to
        tail."""
        # Reversed rows put each head first.
        rows = self.rank[s, :, ::-1]
        return rows[rows > 0]

    def clear(self, lanes: np.ndarray) -> None:
        """Empty every queue of the lanes where ``lanes`` is set."""
        self.rank[lanes] = 0
        self.len[lanes] = 0
        self.head[lanes] = 0


# ---------------------------------------------------------------------------
# Arrival preprocessing, from the trace columns
# ---------------------------------------------------------------------------

class _GlobalSlot:
    """One slot's arrivals concatenated lane-major across the batch:
    their lanes ``ev_s``, flat VOQ indices ``ev_f`` and ranks ``ev_r``,
    entries ``lo .. lo + n - 1`` of the batch's event columns.

    ``rounds`` partitions the event indices so that every round touches
    each VOQ at most once: event ``k`` lands in round ``r`` when it is
    the ``r``-th arrival into its VOQ within its slot.  Round ``r``
    decisions therefore see exactly the queue state left by all earlier
    arrivals to the same VOQ, which is all the sequential admission loop
    of the reference kernel ever observes.  A slot whose events all land
    in distinct VOQs has the one round ``slice(None)``, which indexes
    its columns without a copy.

    Safe to precompute for the whole run: a lane with arrivals at slot
    ``t`` has ``t < n_arrival_slots`` and no lane can retire before the
    end of its arrival slots (retirement requires ``t >=
    n_arrival_slots`` or reaching the horizon, which is at least
    ``n_arrival_slots``).
    """

    __slots__ = ("lo", "n", "ev_s", "ev_f", "ev_r", "rounds")

    def __init__(self, lo, ev_s, ev_f, ev_r):
        self.lo = lo
        self.n = len(ev_f)
        self.ev_s = ev_s
        self.ev_f = ev_f
        self.ev_r = ev_r
        # Sort stably by VOQ and count along each run of one VOQ.
        by_q = np.argsort(ev_f, kind="stable")
        fq = ev_f[by_q]
        first = np.ones(self.n, dtype=bool)
        first[1:] = fq[1:] != fq[:-1]
        if first.all():
            self.rounds = [slice(None)]
            return
        pos = np.arange(self.n)
        rounds = np.empty(self.n, dtype=np.intp)
        rounds[by_q] = pos - np.maximum.accumulate(np.where(first, pos, 0))
        self.rounds = [np.flatnonzero(rounds == k)
                       for k in range(int(rounds.max()) + 1)]


def _slot_events(traces: Sequence[Trace], n_in: int, n_out: int
                 ) -> Tuple[List[Optional[_GlobalSlot]], np.ndarray,
                            np.ndarray, np.ndarray]:
    """Rank the batch's packets and lay its arrivals out by slot, in
    whole-batch array operations over the trace columns: no packet is
    built or walked in Python.

    Returns every arrival slot's :class:`_GlobalSlot` (``None`` for a
    slot without arrivals), the event lane and rank columns the slots
    slice, and the rank -> value column (``value[0]``, "no packet", is
    0.0)."""
    cols = [trace.columns() for trace in traces]
    sizes = [len(c[0]) for c in cols]
    n = sum(sizes)

    def column(k: int, dtype) -> np.ndarray:
        return np.concatenate([np.frombuffer(c[k], dtype=dtype)
                               for c in cols])

    # Rank by (value, -pid).  While no two values tie, a plain (unstable)
    # sort of the values is that order; with ties, lexsort adds the pid
    # tie-break and, being stable, fixes the order of equal keys from
    # different lanes, which never meet.
    val = column(1, np.float64)
    by_rank = np.argsort(val)
    value = np.empty(n + 1)
    value[0] = 0.0
    np.take(val, by_rank, out=value[1:])
    if (value[2:] == value[1:-1]).any():
        by_rank = np.lexsort((-column(0, np.int64), val))
        np.take(val, by_rank, out=value[1:])
    del val
    rank = np.empty(n, dtype=_RANK_DTYPE)
    rank[by_rank] = np.arange(1, n + 1, dtype=_RANK_DTYPE)
    del by_rank

    # Each lane's rows are in (arrival, pid) order, so a stable sort by
    # slot puts the batch slot-major, lane-major within a slot and in
    # arrival order within a lane.
    arr = column(2, np.int64)
    order = np.argsort(arr, kind="stable")
    n_slots = max(trace.n_slots for trace in traces)
    bounds = np.searchsorted(arr[order], np.arange(n_slots + 1)).tolist()
    del arr
    rank = rank[order]
    voq = column(3, np.int64) * n_out
    voq += column(4, np.int64)
    voq += np.repeat(np.arange(len(cols), dtype=np.int64) * (n_in * n_out),
                     sizes)
    voq = voq[order]
    lane = np.repeat(np.arange(len(cols), dtype=np.int64), sizes)[order]
    slots = [
        _GlobalSlot(lo, lane[lo:hi], voq[lo:hi], rank[lo:hi])
        if hi > lo else None
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return slots, lane, rank, value


# ---------------------------------------------------------------------------
# Per-lane float sums in reference order
# ---------------------------------------------------------------------------

def _sequential_sum(values: np.ndarray) -> float:
    """``values`` added left to right from 0.0, as the reference kernel's
    ``+=`` adds them: ``np.cumsum`` adds sequentially, while ``np.sum``
    adds pairwise and would round differently."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def _by_lane(lanes: np.ndarray, S: int) -> Tuple[np.ndarray, List[int]]:
    """The stable order that groups entries by lane, each lane's kept in
    its own order, and the bounds: lane ``s`` is ``order[bounds[s]:
    bounds[s + 1]]``.  One sort, not a full-length mask per lane; the
    order is int32 (a batch numbers its packets in int32) and the bounds
    come from the lane counts, which keeps the end-of-run copies small."""
    order = np.argsort(lanes, kind="stable").astype(np.int32)
    return order, [0] + np.bincount(lanes, minlength=S).cumsum().tolist()


class _Victims:
    """One preemption site's victims: per lane, how many so far, and
    their ranks in the reference kernel's order, logged per cycle and
    summed by value once per lane at the end."""

    __slots__ = ("count", "_lanes", "_ranks")

    def __init__(self, S: int):
        self.count = np.zeros(S, dtype=np.int64)
        self._lanes: List[np.ndarray] = []
        self._ranks: List[np.ndarray] = []

    def add(self, lanes: np.ndarray, ranks: np.ndarray) -> None:
        """Log victims of ``lanes`` with ``ranks``, each lane's in its
        reference order."""
        self.count += np.bincount(lanes, minlength=self.count.size)
        self._lanes.append(lanes)
        self._ranks.append(ranks)

    def value_sums(self, value: np.ndarray) -> List[float]:
        S = self.count.size
        if not self._lanes:
            return [0.0] * S
        order, bounds = _by_lane(np.concatenate(self._lanes), S)
        values = value.take(np.concatenate(self._ranks).take(order))
        return [_sequential_sum(values[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# Policy steppers
# ---------------------------------------------------------------------------

class _Stepper:
    """One scheduling-phase implementation; subclasses mirror exactly one
    reference policy class."""

    #: "reject" (drop when the VOQ is full; GM, CGU) or "pushout"
    #: (preempt the VOQ tail when strictly less valuable; PG, CPG).
    arrival = "reject"

    def __init__(self, run: "_BatchRun", proto):
        self.run = run

    def cycle(self, t: int, cyc: int) -> None:
        raise NotImplementedError


class _GMStepper(_Stepper):
    """GM keeps its rotating bitmask walk, which is a greedy matching
    under the order (rotated input, output).  On large-n-cioq's 1,412
    GM cycles (a median of 422 edges, 12,843 at p90),
    :func:`greedy_matching` over the same edges, keyed by that order,
    took 0.82 s against 0.19 s for whole bitmask cycles, transfers
    included."""

    arrival = "reject"

    def __init__(self, run, proto):
        super().__init__(run, proto)
        self.rotate = proto.rotate
        self._orders: Dict[int, Tuple[int, ...]] = {}

    def _order(self, offset: int) -> Tuple[int, ...]:
        cached = self._orders.get(offset)
        if cached is None:
            ni = self.run.NI
            cached = tuple(range(offset, ni)) + tuple(range(offset))
            self._orders[offset] = cached
        return cached

    def cycle(self, t, cyc):
        run = self.run
        ni, nj = run.NI, run.NJ
        offset = (t * run.speedup + cyc) % ni if self.rotate else 0
        order = self._order(offset)
        rowbits = run.voq_rowbits()
        # Starting ``avail`` from the open outputs folds the
        # output-not-full condition of the edge mask into the scan.
        openbits = run.pack_bool_rows(run.out.len < run.B_out)
        mrow: List[int] = []
        mj: List[int] = []
        for s in run.active_ids:
            avail = openbits[s]
            if not avail:
                continue
            base = s * ni
            for i in order:
                row = base + i
                m = rowbits[row] & avail
                if m:
                    low = m & -m
                    avail ^= low
                    mrow.append(row)
                    mj.append(low.bit_length() - 1)
                    if not avail:
                        break
        if mrow:
            row = np.array(mrow, dtype=np.int64)
            j = np.array(mj, dtype=np.int64)
            run.apply_cioq_head_transfers(row * nj + j, row // ni * nj + j)


#: Locally-dominant rounds :func:`greedy_matching` runs before the
#: sequential walk takes the edges left.  On large-n's PG about 3,700
#: edges per cycle fall to about 1,050, 380 and 180 after one, two and
#: three rounds; an adversarial staircase matches one edge per round,
#: so rounds alone would cost O(ports) array passes there.
_PG_ROUNDS = 3


def greedy_matching(key: np.ndarray, pin: np.ndarray, pout: np.ndarray,
                    n_pin: int, n_pout: int) -> np.ndarray:
    """Indices of the greedy maximal matching of edges ``k`` =
    (``pin[k]``, ``pout[k]``) scanned by ``key`` descending; the integer
    keys must be distinct.  Ports are ``0..n_pin-1`` and
    ``0..n_pout-1``.  The result is in no particular order.

    Under a strict total order, an edge that ranks first at both of its
    ports is in the greedy matching, and taking every such edge at once
    and dropping the edges they touch leaves a graph whose greedy
    matching is the rest (Preis, STACS 1999).  :data:`_PG_ROUNDS` such
    rounds run as array operations; the sequential walk finishes the
    edges left.
    """
    idx = np.arange(key.size)
    taken_in = np.zeros(n_pin, dtype=bool)
    taken_out = np.zeros(n_pout, dtype=bool)
    low = np.iinfo(key.dtype).min
    best_in = np.empty(n_pin, dtype=key.dtype)
    best_out = np.empty(n_pout, dtype=key.dtype)
    won = []
    for _ in range(_PG_ROUNDS):
        if idx.size == 0:
            break
        best_in.fill(low)
        np.maximum.at(best_in, pin, key)
        best_out.fill(low)
        np.maximum.at(best_out, pout, key)
        win = (best_in[pin] == key) & (best_out[pout] == key)
        won.append(idx[win])
        taken_in[pin[win]] = True
        taken_out[pout[win]] = True
        rest = ~(taken_in[pin] | taken_out[pout])
        idx = idx[rest]
        key = key[rest]
        pin = pin[rest]
        pout = pout[rest]
    if idx.size:
        order = np.argsort(key)[::-1]
        used_in = set()
        used_out = set()
        walk = []
        for k, i, j in zip(idx[order].tolist(), pin[order].tolist(),
                           pout[order].tolist()):
            if i in used_in or j in used_out:
                continue
            used_in.add(i)
            used_out.add(j)
            walk.append(k)
        won.append(np.array(walk, dtype=np.int64))
    return np.concatenate(won) if won else idx


class _PGStepper(_Stepper):
    arrival = "pushout"

    def __init__(self, run, proto):
        super().__init__(run, proto)
        self.above_beta = run.above(proto.beta)

    def cycle(self, t, cyc):
        run = self.run
        nj = run.NJ
        nq = run.NI * nj
        # Edges lane-major and cell-ascending: within one lane, edge
        # index order is the reference tie order (i, j).
        flat = np.flatnonzero(run.voq.head > 0)
        if flat.size == 0:
            return
        head = run.voq.head.reshape(-1).take(flat)
        tail = run.out.tails().reshape(-1)
        pout = flat // nq * nj + flat % nj
        # A full output takes a head worth more than beta times its
        # tail, an open one any head: its first entry is 0, which
        # ``above`` maps to 0.
        keep = head > self.above_beta.take(tail).take(pout)
        if not keep.all():
            flat = flat[keep]
            head = head[keep]
            pout = pout[keep]
            if flat.size == 0:
                return
        # The reference scan order: value descending, then cell
        # ascending, as one distinct key per edge (``run.n_cells`` is
        # below 2**32 wherever the rank arrays fit in memory).
        key = run.above_one.take(head).astype(np.int64) * run.n_cells - flat
        won = greedy_matching(key, flat // nj, pout, run.S * run.NI,
                              run.S * nj)
        flat = flat[won]
        pout = pout[won]
        pre = run.out.len.reshape(-1).take(pout) >= run.B_out
        if pre.any():
            # Preemptions accrue in each lane's chosen-transfer order.
            k = np.flatnonzero(pre)
            k = k[np.argsort(key[won[k]])[::-1]]
            run.pre_out.add(pout[k] // nj, tail[pout[k]])
        run.apply_cioq_head_transfers(flat, pout, pre)


class _CGUStepper(_Stepper):
    arrival = "reject"

    def __init__(self, run, proto):
        super().__init__(run, proto)
        self.rotate = proto.rotate

    def cycle(self, t, cyc):
        run = self.run
        ni, nj = run.NI, run.NJ
        S = run.S
        count = t * run.speedup + cyc
        # Input subphase: first (rotated) j with VOQ non-empty and
        # crosspoint non-full, per input.  Rolling the mask left by the
        # offset makes that the first set entry, the boolean argmax.
        off_in = count % nj if self.rotate else 0
        elig = (run.voq.head > 0) & (run.cross.len < run.B_cross)
        elig = np.roll(elig.reshape(S, ni, nj), -off_in, axis=2)
        first = elig.argmax(axis=2)
        ss, ii = np.nonzero(elig.any(axis=2))
        if ss.size:
            f = (ss * ni + ii) * nj + (first[ss, ii] + off_in) % nj
            run.cross.insert(f, run.voq.pop_heads(f))
        # Output subphase: first (rotated) i with crosspoint non-empty,
        # per non-full output.
        off_out = count % ni if self.rotate else 0
        elig = (run.cross.head > 0).reshape(S, ni, nj) & (
            run.out.len < run.B_out)[:, None, :]
        elig = np.roll(elig, -off_out, axis=1)
        first = elig.argmax(axis=1)
        ss, jj = np.nonzero(elig.any(axis=1))
        if ss.size:
            f = (ss * ni + (first[ss, jj] + off_out) % ni) * nj + jj
            run.out.insert(ss * nj + jj, run.cross.pop_heads(f))


class _CPGStepper(_Stepper):
    arrival = "pushout"

    def __init__(self, run, proto):
        super().__init__(run, proto)
        self.above_beta = run.above(proto.beta)
        self.above_alpha = run.above(proto.alpha)

    def cycle(self, t, cyc):
        run = self.run
        ni, nj = run.NI, run.NJ
        S = run.S
        voq, cross, out = run.voq, run.cross, run.out
        # -- input subphase: the best eligible VOQ head per input; a full
        # crosspoint takes a head worth more than beta times its tail,
        # an open one (first entry 0) any head.
        best = voq.head * (voq.head > self.above_beta.take(cross.tails()))
        best = best.reshape(S, ni, nj)
        bj = best.argmax(axis=2)
        ss, ii = np.nonzero(np.take_along_axis(best, bj[:, :, None],
                                               axis=2)[:, :, 0])
        if ss.size:
            f = (ss * ni + ii) * nj + bj[ss, ii]
            pre = cross.len.reshape(-1).take(f) >= run.B_cross
            r = voq.pop_heads(f)
            if pre.any():
                # Victims accrue per lane in input order.
                run.pre_cross.add(ss[pre], cross.tails_at(f[pre]))
                cross.delete_tails(f[pre])
            cross.insert(f, r)
        # -- output subphase: the best crosspoint head per output; a full
        # output queue takes it only above alpha times its tail.
        chead = cross.head.reshape(S, ni, nj)
        bi = chead.argmax(axis=1)                             # [S, NJ]
        best = np.take_along_axis(chead, bi[:, None, :], axis=1)[:, 0, :]
        ss, jj = np.nonzero(best > self.above_alpha.take(out.tails()))
        if ss.size == 0:
            return
        f = (ss * ni + bi[ss, jj]) * nj + jj
        g = ss * nj + jj
        pre = out.len[ss, jj] >= run.B_out
        r = cross.pop_heads(f)
        if pre.any():
            # Victims accrue per lane in output order.
            run.pre_out.add(ss[pre], out.tails_at(g[pre]))
            out.delete_tails(g[pre])
        out.insert(g, r)


#: Policy classes (by exact type) the fast kernel implements, per model.
SUPPORTED_POLICIES: Dict[Tuple[str, Type], Type[_Stepper]] = {
    ("cioq", GMPolicy): _GMStepper,
    ("cioq", PGPolicy): _PGStepper,
    ("crossbar", CGUPolicy): _CGUStepper,
    ("crossbar", CPGPolicy): _CPGStepper,
}


# ---------------------------------------------------------------------------
# The lockstep batch run
# ---------------------------------------------------------------------------

class _BatchRun:
    def __init__(self, model: str, proto, config: SwitchConfig,
                 traces: Sequence[Trace], max_extra_slots: Optional[int],
                 metrics):
        stepper_cls = SUPPORTED_POLICIES.get((model, type(proto)))
        if stepper_cls is None:
            raise BackendUnsupported(
                f"the fast kernel has no {model} stepper for "
                f"{type(proto).__name__}"
            )
        self.crossbar = model == "crossbar"
        cap = max(config.b_in, config.b_out,
                  config.b_cross if self.crossbar else 0)
        if cap > np.iinfo(_LEN_DTYPE).max:
            raise BackendUnsupported(
                f"the fast kernel holds queue lengths as "
                f"{np.dtype(_LEN_DTYPE).name}, which cannot count to the "
                f"capacity {cap}"
            )
        n_packets = sum(len(trace) for trace in traces)
        if n_packets > np.iinfo(_RANK_DTYPE).max:
            raise BackendUnsupported(
                f"the fast kernel ranks packets as "
                f"{np.dtype(_RANK_DTYPE).name}, which cannot number the "
                f"batch's {n_packets} packets"
            )
        S = len(traces)
        self.S = S
        self.NI = config.n_in
        self.NJ = config.n_out
        self.n_cells = S * self.NI * self.NJ
        self.B_in = config.b_in
        self.B_out = config.b_out
        self.B_cross = config.b_cross
        self.speedup = config.speedup

        self.voq = _QueueFamily(S, self.NI * self.NJ, self.B_in)
        self.out = _QueueFamily(S, self.NJ, self.B_out)
        self.cross = (_QueueFamily(S, self.NI * self.NJ, self.B_cross)
                      if self.crossbar else None)
        # Residuals in buffered_packets() order: VOQ grid, (crosspoint
        # grid,) outputs.
        self.families = ([self.voq, self.cross, self.out] if self.crossbar
                         else [self.voq, self.out])

        extra = (drain_bound(config) if max_extra_slots is None
                 else max_extra_slots)
        self.results = [
            SimulationResult(policy_name=proto.name, config=config,
                             n_arrival_slots=trace.n_slots,
                             horizon=trace.n_slots + extra)
            for trace in traces
        ]
        self.n_arr = np.array([trace.n_slots for trace in traces],
                              dtype=np.int64)
        self.horizon = self.n_arr + extra
        self.slots_exec = np.zeros(S, dtype=np.int64)
        # No lane retires before its arrivals end or its horizon's last
        # slot.
        self.first_retire = int(min(self.n_arr.min(),
                                    self.horizon.min() - 1))

        # A lane whose horizon is 0 runs no slot, as in the reference.
        self.active_mask = self.horizon > 0
        self.active_ids: List[int] = np.flatnonzero(self.active_mask).tolist()

        # Lane-major concatenated arrival events per slot, for the
        # whole batch (lanes cannot retire before their arrivals end),
        # and a one-byte acceptance mask over them.
        self.slot_events, self.ev_lane, self.ev_rank, self.value = (
            _slot_events(traces, self.NI, self.NJ))
        self.max_n_arr = len(self.slot_events)
        self.accepted = np.zeros(self.ev_rank.size, dtype=bool)

        # Per-lane accounting (see the module docstring).
        self.n_arrived = np.zeros(S, dtype=np.int64)
        self.n_rejected = np.zeros(S, dtype=np.int64)
        self.n_sent = np.zeros(S, dtype=np.int64)
        self.benefit = np.zeros(S)
        self.sent_po = np.zeros((S, self.NJ), dtype=np.int64)
        self.val_po = np.zeros((S, self.NJ))
        self.pre_voq = _Victims(S)
        self.pre_cross = _Victims(S)
        self.pre_out = _Victims(S)

        self.pushout = stepper_cls.arrival == "pushout"
        # A full VOQ pushes its tail out for a strictly better value.
        self.above_one = self.above(1.0) if self.pushout else None
        self.stepper = stepper_cls(self, proto)

        # Metrics guard: resolved once per batch, never per slot (the
        # same compiled-out contract as the reference kernel).
        self.metrics = (metrics if metrics is not None and metrics.enabled
                        else None)
        self.m_every = self.metrics.every_k if self.metrics is not None else 0
        # Per-lane sample buffers, flushed lane-major after the run so
        # the recorder's series is byte-identical to running the same
        # traces serially through the reference kernel.
        self._samples: Optional[List[List[tuple]]] = (
            [[] for _ in range(S)] if self.m_every > 0 else None)

    def above(self, factor: float) -> np.ndarray:
        """Per rank ``w``, the number of packets worth at most ``factor *
        value[w]``: a packet of rank ``x`` is worth more than ``factor``
        times packet ``w`` iff ``x > above[w]``.  Rank 0 maps to 0."""
        # A product past a float's range is inf, which no value exceeds,
        # as in the reference's Python float compare.
        with np.errstate(over="ignore"):
            threshold = factor * self.value
        return np.searchsorted(self.value[1:], threshold,
                               side="right").astype(_RANK_DTYPE)

    # -- shared mask/bit helpers -------------------------------------------

    def pack_bool_rows(self, mat: np.ndarray) -> List[int]:
        """Pack each boolean row of a 2-D array into one Python int
        bitmask (bit ``c`` = column ``c``; little-endian platform)."""
        packed = np.packbits(mat, axis=1, bitorder="little")
        nb = packed.shape[1]
        if nb <= 8:
            if nb < 8:
                buf = np.zeros((packed.shape[0], 8), dtype=np.uint8)
                buf[:, :nb] = packed
                packed = buf
            return packed.view(np.uint64).ravel().tolist()
        w = (nb + 7) // 8
        if nb < 8 * w:
            buf = np.zeros((packed.shape[0], 8 * w), dtype=np.uint8)
            buf[:, :nb] = packed
            packed = buf
        stride = 8 * w
        data = packed.tobytes()
        return [
            int.from_bytes(data[o:o + stride], "little")
            for o in range(0, len(data), stride)
        ]

    def voq_rowbits(self) -> List[int]:
        """Per-(lane, input) bitmask of non-empty VOQs (retired lanes'
        rows are empty)."""
        return self.pack_bool_rows(
            (self.voq.len > 0).reshape(-1, self.NJ))

    # -- shared transfer applicator ----------------------------------------

    def apply_cioq_head_transfers(self, f, g, pre=None):
        """Pop the heads of VOQs ``f`` and insert them into output
        queues ``g`` (flat indices); where the mask ``pre`` is set,
        first delete the output's tail (a preemption victim, already
        accounted)."""
        r = self.voq.pop_heads(f)
        if pre is not None and pre.any():
            self.out.delete_tails(g[pre])
        self.out.insert(g, r)

    # -- slot phases --------------------------------------------------------

    def _arrival_phase(self, t: int) -> None:
        g = self.slot_events[t] if t < self.max_n_arr else None
        if g is None:
            return
        voq = self.voq
        b_in = self.B_in
        accepted = self.accepted[g.lo:g.lo + g.n]
        if self.pushout:
            # Each event's victim rank, 0 where it pushed nothing out.
            victim = np.zeros(g.n, dtype=_RANK_DTYPE)
        for ids in g.rounds:
            f = g.ev_f[ids]
            r = g.ev_r[ids]
            acc = voq.len.reshape(-1).take(f) < b_in
            if self.pushout:
                tail = voq.tails_at(f)
                pre = ~acc & (r > self.above_one.take(tail))
                if pre.any():
                    voq.delete_tails(f[pre])
                    victim[ids] = tail * pre
                    acc |= pre
            voq.insert(f[acc], r[acc])
            accepted[ids] = acc
        S = self.S
        self.n_arrived += np.bincount(g.ev_s, minlength=S)
        self.n_rejected += np.bincount(g.ev_s[~accepted], minlength=S)
        if self.pushout:
            pushed = victim > 0
            if pushed.any():
                # Events are lane-major and in arrival order within a
                # lane.
                self.pre_voq.add(g.ev_s[pushed], victim[pushed])

    def _transmit_phase(self, t: int) -> None:
        ss, jj = np.nonzero(self.out.head > 0)
        if ss.size == 0:
            return
        v = self.value.take(self.out.pop_heads(ss * self.NJ + jj))
        self.n_sent += np.bincount(ss, minlength=self.S)
        self.sent_po[ss, jj] += 1
        self.val_po[ss, jj] += v
        # Each lane adds its sends in output order, zeros between them.
        rows = np.zeros((self.S, self.NJ + 1))
        rows[:, 0] = self.benefit
        rows[ss, jj + 1] = v
        self.benefit = rows.cumsum(axis=1)[:, -1]

    def _sample_phase(self, t: int, sent_before: List[int]) -> None:
        """Buffer one end-of-slot metrics sample per active lane.

        Occupancy totals come from vectorized ``len`` reductions across
        the whole batch (one numpy sum per queue family, not a Python
        walk per lane), matching ``switch.occupancy_totals()`` exactly.
        """
        vt = self.voq.len.sum(axis=1).tolist()
        ot = self.out.len.sum(axis=1).tolist()
        ct = (self.cross.len.sum(axis=1).tolist() if self.crossbar
              else [0] * self.S)
        n_sent = self.n_sent.tolist()
        n_arrived = self.n_arrived.tolist()
        n_rejected = self.n_rejected.tolist()
        n_pre = (self.pre_voq.count + self.pre_cross.count
                 + self.pre_out.count).tolist()
        samples = self._samples
        for s in self.active_ids:
            samples[s].append((
                t, s, vt[s], ct[s], ot[s],
                n_sent[s] - sent_before[s], n_arrived[s], n_sent[s],
                n_rejected[s], n_pre[s],
            ))

    def _flush_metrics(self) -> None:
        """Flush buffered samples (lane-major) and per-lane run counters
        into the recorder, in the exact order serial reference runs over
        the same traces would have produced them."""
        m = self.metrics
        if self._samples is not None:
            slot_sample = m.slot_sample
            for lane_samples in self._samples:
                for samp in lane_samples:
                    slot_sample(*samp)
        for s, res in enumerate(self.results):
            m.counter("runs_total")
            m.counter("slots_total", int(self.slots_exec[s]))
            m.counter("packets_arrived_total", res.n_arrived)
            m.counter("packets_sent_total", res.n_sent)
            m.counter("packets_rejected_total", res.n_rejected)
            m.counter("packets_preempted_total", res.n_preempted)
            m.counter("benefit_total", res.benefit)

    def _retire(self, t: int) -> None:
        if t < self.first_retire:
            return
        # A lane's buffered count is its queue-length total.
        buffered = self.voq.len.sum(axis=1) + self.out.len.sum(axis=1)
        if self.crossbar:
            buffered += self.cross.len.sum(axis=1)
        done = self.active_mask & (
            ((buffered == 0) & (t >= self.n_arr)) | (t + 1 >= self.horizon))
        if not done.any():
            return
        self.slots_exec[done] = t + 1
        self.active_mask &= ~done
        self.active_ids = np.flatnonzero(self.active_mask).tolist()
        # A lane stopped at its horizon keeps its residual packets: sum
        # them now, then empty the lane's queues, so that the steppers
        # never see a retired lane.
        for s in np.flatnonzero(done & (buffered > 0)).tolist():
            residual = self.value.take(np.concatenate(
                [fam.lane_ranks(s) for fam in self.families]))
            self.results[s].n_residual = residual.size
            self.results[s].value_residual = _sequential_sum(residual)
        for fam in self.families:
            fam.clear(done)

    def _finalize(self) -> List[SimulationResult]:
        n_arrived = self.n_arrived.tolist()
        n_rejected = self.n_rejected.tolist()
        n_pre = [site.count.tolist()
                 for site in (self.pre_voq, self.pre_cross, self.pre_out)]
        v_pre = [site.value_sums(self.value)
                 for site in (self.pre_voq, self.pre_cross, self.pre_out)]
        benefit = self.benefit.tolist()
        n_sent = self.n_sent.tolist()
        # Each lane's events, in its arrival order, gathered per lane.
        order, bounds = _by_lane(self.ev_lane, self.S)
        for s, res in enumerate(self.results):
            mine = order[bounds[s]:bounds[s + 1]]
            values = self.value.take(self.ev_rank.take(mine))
            accepted = self.accepted.take(mine)
            res.n_arrived = n_arrived[s]
            res.value_arrived = _sequential_sum(values)
            res.n_accepted = n_arrived[s] - n_rejected[s]
            res.value_accepted = _sequential_sum(values[accepted])
            res.n_rejected = n_rejected[s]
            res.value_rejected = _sequential_sum(values[~accepted])
            res.n_preempted_voq = n_pre[0][s]
            res.value_preempted_voq = v_pre[0][s]
            res.n_preempted_cross = n_pre[1][s]
            res.value_preempted_cross = v_pre[1][s]
            res.n_preempted_out = n_pre[2][s]
            res.value_preempted_out = v_pre[2][s]
            res.benefit = benefit[s]
            res.n_sent = n_sent[s]
            sent_po = self.sent_po[s].tolist()
            val_po = self.val_po[s].tolist()
            res.sent_per_output = {j: c for j, c in enumerate(sent_po) if c}
            res.value_per_output = {j: val_po[j] for j in res.sent_per_output}
            res.check_conservation()
        return self.results

    def run(self) -> List[SimulationResult]:
        every = self.m_every
        sampling = every > 0
        sent_before: List[int] = []
        t = 0
        while self.active_ids:
            sample_slot = sampling and t % every == 0
            if sample_slot:
                sent_before = self.n_sent.tolist()
            self._arrival_phase(t)
            for cyc in range(self.speedup):
                self.stepper.cycle(t, cyc)
            self._transmit_phase(t)
            if sample_slot:
                self._sample_phase(t, sent_before)
            self._retire(t)
            t += 1
        results = self._finalize()
        if self.metrics is not None:
            self._flush_metrics()
        return results


# ---------------------------------------------------------------------------
# Entry point (the engine's dispatch; tests call it to pin this kernel)
# ---------------------------------------------------------------------------

def run_batch(
    model: str,
    proto,
    config: SwitchConfig,
    traces: Sequence[Trace],
    *,
    record: bool = False,
    max_extra_slots: Optional[int] = None,
    check_invariants: bool = False,
    metrics=None,
) -> List[SimulationResult]:
    """Run ``proto`` (a policy instance used read-only, as the parameter
    prototype) over every trace in lockstep; returns one
    :class:`SimulationResult` per trace, in order.  The engine has
    already checked every trace against ``config``'s port counts.

    With an active ``metrics`` recorder, per-slot samples are buffered
    during the lockstep loop and flushed lane-major afterwards, so the
    recorder ends up byte-identical to serial reference runs over the
    same traces (lane ``i`` is tagged ``i``).  This kernel measures no
    phase wall-times, so a ``timed`` recorder raises
    :class:`BackendUnsupported`, as ``record`` and ``check_invariants``
    do."""
    if record:
        raise BackendUnsupported(
            "the fast kernel does not implement record=True event logs"
        )
    if check_invariants:
        raise BackendUnsupported(
            "the fast kernel does not implement check_invariants=True"
        )
    if metrics is not None and metrics.enabled and metrics.timed:
        raise BackendUnsupported(
            "the fast kernel does not time the phases of a timed recorder"
        )
    if not traces:
        return []
    run = _BatchRun(model, proto, config, traces, max_extra_slots, metrics)
    try:
        return run.run()
    finally:
        # The run and its stepper refer to each other: breaking the
        # cycle frees the batch's arrays now, not at the next cyclic
        # collection, so a later batch never runs while they are held.
        del run.stepper
