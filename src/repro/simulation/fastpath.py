"""Vectorized numpy backend for the slot loop (the ``fast`` backend).

This module re-implements :func:`repro.simulation.kernel.run_slot_loop`
for the paper's four policies (GM, PG, CGU, CPG) as a *lockstep batch*
over many traces ("lanes") at once, with all queue state held in
structure-of-arrays numpy buffers:

* every queue family (VOQs, crosspoint queues, output queues) is a
  ``(value, pid, length)`` triple of arrays with a leading lane axis
  ``S``, entries ``0..len-1`` sorted ascending by the packet key
  ``(value, -pid)`` — head at index ``len-1``, preemption tail at
  index ``0``, exactly mirroring
  :class:`repro.switch.queue.BoundedQueue`;
* arrival admission, queue pushes/pops and transmissions are batched
  numpy operations across lanes and ports, touching only the sparse set
  of non-empty queues;
* PG's greedy maximal weighted matching takes a few locally-dominant
  rounds over the sparse edge list as array operations, and a
  sequential walk finishes the few edges left
  (:func:`greedy_matching`); GM's rotating scan packs per-cycle
  eligibility into per-row Python int bitmasks (``np.packbits``), so it
  costs O(ports), not O(ports^2);
* the accounting is arrays too, and every float accumulator receives
  the reference kernel's IEEE adds in its order: arrivals set a one-byte
  acceptance mask over the batch's event columns, and preemptions log
  their victims' values, each summed once per lane at the end by a
  sequential ``np.cumsum`` (``np.sum`` adds pairwise and would round
  differently); ``benefit`` adds a slot's transmissions through a
  zero-padded ``[S, NJ + 1]`` row cumsum, and each output's value total
  takes at most one add per slot.  A lane's buffered count, which
  decides its retirement, is its queue-length total.

The contract is **bit-identical equality** with the reference kernel on
every observable :class:`~repro.simulation.results.SimulationResult`
field; ``tests/test_backend_equivalence.py`` pins it differentially
across the whole scenario registry and a property-based random matrix.

Features the reference kernel has that this backend deliberately does
not (requesting them raises
:class:`~repro.simulation.backends.BackendUnsupported`, and ``auto``
falls back): streaming/adaptive sources, ``record=True`` event logs,
``check_invariants=True``, and policy classes outside
:data:`SUPPORTED_POLICIES` — the comparison baselines among them.
"""

from __future__ import annotations

from time import perf_counter
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

#: Sentinel pid larger than any real one (tie-break minimum scans).
_BIG_PID = np.iinfo(np.int64).max

#: Queue lengths are int16 (capacities are per-queue buffer sizes);
#: the narrow dtype makes the hot ``len > 0`` /
#: ``len < B`` comparisons several times cheaper.  A capacity above its
#: maximum raises :class:`BackendUnsupported`, so ``auto`` falls back.
_LEN_DTYPE = np.int16


# ---------------------------------------------------------------------------
# Structure-of-arrays queue family
# ---------------------------------------------------------------------------

class _QueueFamily:
    """``S x Q`` bounded queues of capacity ``B`` as three arrays.

    ``val[s, q, 0:len[s, q]]`` ascending by ``(value, -pid)``; entries at
    and beyond ``len`` are garbage and must always be masked by ``len``.
    """

    __slots__ = ("val", "pid", "len", "Q", "B", "_rows_v", "_rows_p",
                 "_lens", "_below_len", "_last")

    def __init__(self, S: int, Q: int, B: int):
        self.val = np.zeros((S, Q, B), dtype=np.float64)
        self.pid = np.zeros((S, Q, B), dtype=np.int64)
        self.len = np.zeros((S, Q), dtype=_LEN_DTYPE)
        self.Q = Q
        self.B = B
        # Views with queue ``(s, q)`` at flat index ``s * Q + q``: the
        # mutators gather through ``take`` on them, several times
        # cheaper than two-array fancy indexing.
        self._rows_v = self.val.reshape(S * Q, B)
        self._rows_p = self.pid.reshape(S * Q, B)
        self._lens = self.len.reshape(-1)
        # ``_below_len[l]`` masks the first ``l`` entries of a row.
        self._below_len = np.arange(B)[None, :] < np.arange(B + 1)[:, None]
        # ``_last + len`` is each head's index into ``val.reshape(-1)``.
        self._last = np.arange(-1, S * Q * B - 1, B,
                               dtype=np.int64).reshape(S, Q)

    # All (s, q) selector pairs handed to the mutators below must be
    # unique within one call — the scatter-back would otherwise race.

    def insert(self, s, q, v, p) -> None:
        """Sorted-insert packet ``(v, p)`` into each selected queue,
        which must have room."""
        if len(s) == 0:
            return
        f = s * self.Q + q
        rv = self._rows_v.take(f, axis=0)          # [K, B] gather
        rp = self._rows_p.take(f, axis=0)
        ln = self._lens.take(f)
        vc = v[:, None]
        # The entries keyed below the packet: a prefix of each sorted
        # row, ending before its first free entry at the latest.
        below = self._below_len.take(ln, axis=0) & (
            (rv < vc) | ((rv == vc) & (rp > p[:, None])))
        # The packet lands on the first entry not below it, and the
        # entries from there on move up by one.
        at = ~below
        at[:, 1:] &= below[:, :-1]
        new_v = np.where(below, rv,
                         np.concatenate([rv[:, :1], rv[:, :-1]], axis=1))
        new_v[at] = v
        new_p = np.where(below, rp,
                         np.concatenate([rp[:, :1], rp[:, :-1]], axis=1))
        new_p[at] = p
        self._rows_v[f] = new_v
        self._rows_p[f] = new_p
        self._lens[f] = ln + 1

    def delete_tails(self, s, q) -> None:
        """Remove the tail (least valuable) packet of each selected
        queue: a preemption victim."""
        if len(s) == 0:
            return
        f = s * self.Q + q
        self._rows_v[f, :-1] = self._rows_v.take(f, axis=0)[:, 1:]
        self._rows_p[f, :-1] = self._rows_p.take(f, axis=0)[:, 1:]
        self._lens[f] = self._lens.take(f) - 1

    def pop_heads(self, s, q) -> Tuple[np.ndarray, np.ndarray]:
        """Remove and return the head (max-key) packet of each queue."""
        f = s * self.Q + q
        ln = self._lens.take(f) - np.int16(1)
        at = f * self.B + ln
        v = self.val.reshape(-1).take(at)
        p = self.pid.reshape(-1).take(at)
        self._lens[f] = ln
        return v, p

    def head_vals(self, flat: np.ndarray) -> np.ndarray:
        """Head values of the non-empty queues at flat ``s * Q + q``
        indices ``flat``."""
        at = flat * self.B + (self.len.reshape(-1).take(flat) - 1)
        return self.val.reshape(-1).take(at)

    def lane_values(self, s: int) -> np.ndarray:
        """Lane ``s``'s buffered values, queue by queue, each head to
        tail."""
        ln = self.len[s]
        nz = np.flatnonzero(ln)
        # Reversed rows put each head first.
        return self.val[s, nz, ::-1][
            self._below_len.take(ln[nz], axis=0)[:, ::-1]]

    def heads(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(values, pids, nonempty)`` of every head; empty queues get
        ``-inf`` values (below every real positive value) and garbage
        pids."""
        ln = self.len
        if self.B == 1:
            hv = self.val[:, :, 0]
            hp = self.pid[:, :, 0]
        else:
            # An empty queue reads its predecessor's last slot (the
            # very first one wraps to the last): garbage, masked below.
            at = self._last + ln
            hv = self.val.reshape(-1).take(at)
            hp = self.pid.reshape(-1).take(at)
        nonempty = ln > 0
        hv = np.where(nonempty, hv, -np.inf)
        return hv, hp, nonempty


# ---------------------------------------------------------------------------
# Arrival preprocessing, from the trace columns
# ---------------------------------------------------------------------------

class _GlobalSlot:
    """One slot's arrivals concatenated lane-major across the batch.

    ``rounds`` partitions the event indices so that every round touches
    each VOQ cell at most once: event ``k`` lands in round ``r`` when it
    is the ``r``-th arrival into its cell within its lane and slot.
    Round ``r`` decisions therefore see exactly the queue state left by
    all earlier arrivals to the same cell, which is all the sequential
    admission loop of the reference kernel ever observes.  A slot whose
    events all land in distinct cells has the one round
    ``slice(None)``, which indexes its columns without a copy.  The
    slot's events are entries ``lo .. lo + n - 1`` of the batch's event
    columns.

    Safe to precompute for the whole run: a lane with arrivals at slot
    ``t`` has ``t < n_arrival_slots`` and no lane can retire before the
    end of its arrival slots (retirement requires ``t >=
    n_arrival_slots`` or reaching the horizon, which is at least
    ``n_arrival_slots``).
    """

    __slots__ = ("lo", "n", "ev_s", "ev_c", "ev_v", "ev_p", "rounds")

    def __init__(self, lo, ev_s, ev_c, ev_v, ev_p, ranks):
        self.lo = lo
        self.n = len(ev_s)
        self.ev_s = ev_s
        self.ev_c = ev_c
        self.ev_v = ev_v
        self.ev_p = ev_p
        n_rounds = int(ranks.max()) + 1
        self.rounds = ([slice(None)] if n_rounds == 1 else
                       [np.flatnonzero(ranks == r) for r in range(n_rounds)])


def _slot_events(traces: Sequence[Trace], n_in: int, n_out: int
                 ) -> Tuple[List[Optional[_GlobalSlot]], np.ndarray,
                            np.ndarray]:
    """Every arrival slot's :class:`_GlobalSlot` for the batch (``None``
    for a slot without arrivals), and the batch's event lane and value
    columns the slots slice, in whole-batch array operations over the
    trace columns: no packet is built or walked in Python."""
    cols = [trace.columns() for trace in traces]

    def column(k: int, dtype) -> np.ndarray:
        return np.concatenate([np.frombuffer(c[k], dtype=dtype)
                               for c in cols])

    pid = column(0, np.int64)
    val = column(1, np.float64)
    arr = column(2, np.int64)
    cell = column(3, np.int64) * n_out + column(4, np.int64)
    lane = np.repeat(np.arange(len(cols), dtype=np.int64),
                     [len(c[0]) for c in cols])
    # Each lane's rows are in (arrival, pid) order, so a stable sort by
    # slot puts the batch slot-major, lane-major within a slot and in
    # arrival order within a lane.
    order = np.argsort(arr, kind="stable")
    pid, val, arr, cell, lane = (pid[order], val[order], arr[order],
                                 cell[order], lane[order])
    # An event's round is its rank among the same slot's earlier
    # arrivals into its cell in its lane: number the (slot, lane) runs,
    # sort stably by (run, cell) and count along each equal key.
    n = len(arr)
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (arr[1:] != arr[:-1]) | (lane[1:] != lane[:-1])
    key = (np.cumsum(new_run) - 1) * (n_in * n_out) + cell
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    first = np.ones(n, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    pos = np.arange(n)
    ranks = np.empty(n, dtype=np.int64)
    ranks[by_key] = pos - np.maximum.accumulate(np.where(first, pos, 0))

    n_slots = max(trace.n_slots for trace in traces)
    bounds = np.searchsorted(arr, np.arange(n_slots + 1)).tolist()
    slots = [
        _GlobalSlot(lo, lane[lo:hi], cell[lo:hi], val[lo:hi], pid[lo:hi],
                    ranks[lo:hi]) if hi > lo else None
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return slots, lane, val


# ---------------------------------------------------------------------------
# Per-lane float sums in reference order
# ---------------------------------------------------------------------------

def _sequential_sum(values: np.ndarray) -> float:
    """``values`` added left to right from 0.0, as the reference kernel's
    ``+=`` adds them: ``np.cumsum`` adds sequentially, while ``np.sum``
    adds pairwise and would round differently."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


class _Victims:
    """One preemption site's victims: per lane, how many so far, and
    their values in the reference kernel's order, logged per cycle and
    summed once per lane at the end."""

    __slots__ = ("count", "_lanes", "_values")

    def __init__(self, S: int):
        self.count = np.zeros(S, dtype=np.int64)
        self._lanes: List[np.ndarray] = []
        self._values: List[np.ndarray] = []

    def add(self, lanes: np.ndarray, values: np.ndarray) -> None:
        """Log victims of ``lanes`` with ``values``, each lane's in its
        reference order."""
        self.count += np.bincount(lanes, minlength=self.count.size)
        self._lanes.append(lanes)
        self._values.append(values)

    def value_sums(self) -> List[float]:
        if not self._lanes:
            return [0.0] * self.count.size
        lanes = np.concatenate(self._lanes)
        values = np.concatenate(self._values)
        return [_sequential_sum(values[lanes == s])
                for s in range(self.count.size)]


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
        ms: List[int] = []
        mq: List[int] = []
        mj: List[int] = []
        for s in run.active_ids:
            avail = openbits[s]
            if not avail:
                continue
            base = s * ni
            for i in order:
                m = rowbits[base + i] & avail
                if m:
                    low = m & -m
                    avail ^= low
                    j = low.bit_length() - 1
                    ms.append(s)
                    mq.append(i * nj + j)
                    mj.append(j)
                    if not avail:
                        break
        if ms:
            run.apply_cioq_head_transfers(np.array(ms, dtype=np.int64),
                                          np.array(mq, dtype=np.int64),
                                          np.array(mj, dtype=np.int64))


#: Locally-dominant rounds :func:`greedy_matching` runs before the
#: sequential walk takes the edges left.  On large-n's PG about 3,700
#: edges per cycle fall to about 1,050, 380 and 180 after one, two and
#: three rounds; an adversarial staircase matches one edge per round,
#: so rounds alone would cost O(ports) array passes there.
_PG_ROUNDS = 3


def greedy_matching(val: np.ndarray, pin: np.ndarray, pout: np.ndarray,
                    n_pin: int, n_pout: int) -> np.ndarray:
    """Indices of the greedy maximal matching of edges ``k`` =
    (``pin[k]``, ``pout[k]``), scanned by value descending and then by
    index ascending (the reference scan order); ports are ``0..n_pin-1``
    and ``0..n_pout-1``.  The result is in no particular order.

    Under a strict total order, an edge that ranks first at both of its
    ports is in the greedy matching, and taking every such edge at once
    and dropping the edges they touch leaves a graph whose greedy
    matching is the rest (Preis, STACS 1999).  :data:`_PG_ROUNDS` such
    rounds run as array operations; the sequential walk finishes the
    edges left.
    """
    idx = np.arange(val.size)
    taken_in = np.zeros(n_pin, dtype=bool)
    taken_out = np.zeros(n_pout, dtype=bool)
    best_in = np.empty(n_pin)
    best_out = np.empty(n_pout)
    first_in = np.empty(n_pin, dtype=np.int64)
    first_out = np.empty(n_pout, dtype=np.int64)
    won = []
    for _ in range(_PG_ROUNDS):
        if idx.size == 0:
            break
        # Each port's first edge: its best value, then its lowest index
        # among the edges carrying that value.
        best_in.fill(-np.inf)
        np.maximum.at(best_in, pin, val)
        best_out.fill(-np.inf)
        np.maximum.at(best_out, pout, val)
        first_in.fill(_BIG_PID)
        top = val == best_in[pin]
        np.minimum.at(first_in, pin[top], idx[top])
        first_out.fill(_BIG_PID)
        top = val == best_out[pout]
        np.minimum.at(first_out, pout[top], idx[top])
        win = (first_in[pin] == idx) & (first_out[pout] == idx)
        won.append(idx[win])
        taken_in[pin[win]] = True
        taken_out[pout[win]] = True
        rest = ~(taken_in[pin] | taken_out[pout])
        idx = idx[rest]
        val = val[rest]
        pin = pin[rest]
        pout = pout[rest]
    if idx.size:
        # ``idx`` is still ascending, so a stable sort by descending
        # value is the reference scan order.
        order = np.argsort(-val, kind="stable")
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
        self.beta = proto.beta

    def cycle(self, t, cyc):
        run = self.run
        nj = run.NJ
        nq = run.NI * nj
        ne = run.voq.len > 0
        if not run.all_active:
            ne &= run.active_mask[:, None]
        # Edges lane-major and cell-ascending: within one lane, edge
        # index order is the reference tie order (i, j).
        flat = np.flatnonzero(ne)
        if flat.size == 0:
            return
        gv = run.voq.head_vals(flat)
        full_out = (run.out.len >= run.B_out).reshape(-1)
        tailv = run.out.val[:, :, 0].reshape(-1)
        thr = np.where(full_out, self.beta * tailv, 0.0)
        pout = flat // nq * nj + flat % nj
        keep = gv > thr[pout]
        if not keep.all():
            flat = flat[keep]
            gv = gv[keep]
            pout = pout[keep]
            if flat.size == 0:
                return
        won = greedy_matching(gv, flat // nj, pout, run.S * run.NI,
                              run.S * nj)
        flat = flat[won]
        pout = pout[won]
        ss = flat // nq
        pre = full_out[pout]
        if pre.any():
            # Preemptions accrue in each lane's chosen-transfer order:
            # value descending, then cell ascending.
            k = np.flatnonzero(pre)
            k = k[np.lexsort((flat[k], -gv[won[k]]))]
            run.pre_out.add(ss[k], tailv[pout[k]])
        run.apply_cioq_head_transfers(ss, flat - ss * nq, flat % nj, pre)


class _CGUStepper(_Stepper):
    arrival = "reject"

    def __init__(self, run, proto):
        super().__init__(run, proto)
        self.rotate = proto.rotate
        ni, nj = run.NI, run.NJ
        # Rolled priority tables: ``_pr_in[off][j] == (j - off) % nj``,
        # so the first index at-or-after the rotation offset is the
        # argmin of the table over the eligible entries.
        self._pr_in = [
            np.roll(np.arange(nj, dtype=np.int16), off) for off in range(nj)
        ]
        self._pr_out = [
            np.roll(np.arange(ni, dtype=np.int16), off) for off in range(ni)
        ]

    def cycle(self, t, cyc):
        run = self.run
        ni, nj = run.NI, run.NJ
        S = run.S
        count = t * run.speedup + cyc
        # Input subphase: first (rotated) j with VOQ non-empty and
        # crosspoint non-full, per input.
        off_in = count % nj if self.rotate else 0
        elig = (run.voq.len > 0) & (run.cross.len < run.B_cross)
        if not run.all_active:
            elig &= run.active_mask[:, None]
        elig3 = elig.reshape(S, ni, nj)
        pr = self._pr_in[off_in]
        masked = np.where(elig3, pr[None, None, :], np.int16(nj))
        am = masked.argmin(axis=2)
        hit = np.take_along_axis(masked, am[:, :, None], axis=2)[:, :, 0] < nj
        ss, ii = np.nonzero(hit)
        if ss.size:
            q_arr = ii * nj + am[ss, ii]
            v, p = run.voq.pop_heads(ss, q_arr)
            run.cross.insert(ss, q_arr, v, p)
        # Output subphase: first (rotated) i with crosspoint non-empty,
        # per non-full output.
        off_out = count % ni if self.rotate else 0
        crossne = run.cross.len > 0
        if not run.all_active:
            crossne &= run.active_mask[:, None]
        elig_out = crossne.reshape(S, ni, nj) & (
            run.out.len < run.B_out)[:, None, :]
        pri = self._pr_out[off_out]
        masked = np.where(elig_out, pri[None, :, None], np.int16(ni))
        am = masked.argmin(axis=1)
        hit = np.take_along_axis(masked, am[:, None, :], axis=1)[:, 0, :] < ni
        ss, jj = np.nonzero(hit)
        if ss.size:
            q_arr = am[ss, jj] * nj + jj
            v, p = run.cross.pop_heads(ss, q_arr)
            run.out.insert(ss, jj, v, p)


class _CPGStepper(_Stepper):
    arrival = "pushout"

    def __init__(self, run, proto):
        super().__init__(run, proto)
        self.beta = proto.beta
        self.alpha = proto.alpha

    def cycle(self, t, cyc):
        run = self.run
        ni, nj = run.NI, run.NJ
        S = run.S
        # -- input subphase: best (value, -pid) eligible VOQ head per i.
        hv, hp, ne = run.voq.heads()
        hv3 = hv.reshape(S, ni, nj)
        hp3 = hp.reshape(S, ni, nj)
        cl = run.cross.len.reshape(S, ni, nj)
        cfull = cl >= run.B_cross
        lcv = run.cross.val[:, :, 0].reshape(S, ni, nj)
        elig = ne.reshape(S, ni, nj) & (
            ~cfull | (hv3 > self.beta * lcv))
        if not run.all_active:
            elig &= run.active_mask[:, None, None]
        bv = np.where(elig, hv3, -np.inf).max(axis=2)
        has = bv > -np.inf
        tie = elig & (hv3 == bv[:, :, None])
        bp = np.where(tie, hp3, _BIG_PID).min(axis=2)
        bj = (tie & (hp3 == bp[:, :, None])).argmax(axis=2)
        ss, ii = np.nonzero(has)
        if ss.size:
            jj = bj[ss, ii]
            cells = ii * nj + jj
            pre = cfull[ss, ii, jj]
            v, p = run.voq.pop_heads(ss, cells)
            if pre.any():
                # Victims accrue per lane in input order.
                run.pre_cross.add(ss[pre], lcv[ss, ii, jj][pre])
                run.cross.delete_tails(ss[pre], cells[pre])
            run.cross.insert(ss, cells, v, p)
        # -- output subphase: best crosspoint head per j, thresholded
        # admission into the output queue.
        chv, chp, cne = run.cross.heads()
        chv3 = chv.reshape(S, ni, nj)
        chp3 = chp.reshape(S, ni, nj)
        cne3 = cne.reshape(S, ni, nj)
        if not run.all_active:
            cne3 = cne3 & run.active_mask[:, None, None]
        bv = np.where(cne3, chv3, -np.inf).max(axis=1)       # [S, NJ]
        has = bv > -np.inf
        tie = cne3 & (chv3 == bv[:, None, :])
        bp = np.where(tie, chp3, _BIG_PID).min(axis=1)
        bi = (tie & (chp3 == bp[:, None, :])).argmax(axis=1)
        out_full = run.out.len >= run.B_out
        ljv = run.out.val[:, :, 0]
        admit = has & (~out_full | (bv > self.alpha * ljv))
        ss, jj = np.nonzero(admit)
        if ss.size == 0:
            return
        ii = bi[ss, jj]
        cells = ii * nj + jj
        pre = out_full[ss, jj]
        v, p = run.cross.pop_heads(ss, cells)
        if pre.any():
            # Victims accrue per lane in output order.
            run.pre_out.add(ss[pre], ljv[ss, jj][pre])
            run.out.delete_tails(ss[pre], jj[pre])
        run.out.insert(ss, jj, v, p)


#: Policy classes (by exact type) the fast backend implements, per model.
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
                 trace_occupancy: bool, metrics, metrics_lane: int):
        stepper_cls = SUPPORTED_POLICIES.get((model, type(proto)))
        if stepper_cls is None:
            raise BackendUnsupported(
                f"the fast backend has no {model} stepper for "
                f"{type(proto).__name__}"
            )
        self.crossbar = model == "crossbar"
        cap = max(config.b_in, config.b_out,
                  config.b_cross if self.crossbar else 0)
        if cap > np.iinfo(_LEN_DTYPE).max:
            raise BackendUnsupported(
                f"the fast backend holds queue lengths as "
                f"{np.dtype(_LEN_DTYPE).name}, which cannot count to the "
                f"capacity {cap}"
            )
        S = len(traces)
        self.S = S
        self.NI = config.n_in
        self.NJ = config.n_out
        self.B_in = config.b_in
        self.B_out = config.b_out
        self.B_cross = config.b_cross
        self.speedup = config.speedup
        self.trace_occupancy = trace_occupancy

        self.voq = _QueueFamily(S, self.NI * self.NJ, self.B_in)
        self.out = _QueueFamily(S, self.NJ, self.B_out)
        self.cross = (_QueueFamily(S, self.NI * self.NJ, self.B_cross)
                      if self.crossbar else None)

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
        self.all_active = bool(self.active_mask.all())

        # Lane-major concatenated arrival events per slot, for the
        # whole batch (lanes cannot retire before their arrivals end),
        # and a one-byte acceptance mask over them.
        self.slot_events, self.ev_lane, self.ev_val = _slot_events(
            traces, self.NI, self.NJ)
        self.max_n_arr = len(self.slot_events)
        self.accepted = np.zeros(self.ev_val.size, dtype=bool)

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

        self.stepper = stepper_cls(self, proto)
        self.pushout = self.stepper.arrival == "pushout"

        # Metrics guard: resolved once per batch, never per slot (the
        # same compiled-out contract as the reference kernel).
        self.metrics = (metrics if metrics is not None and metrics.enabled
                        else None)
        self.metrics_lane = metrics_lane
        self.m_every = self.metrics.every_k if self.metrics is not None else 0
        self.m_timed = self.metrics is not None and self.metrics.timed
        # Per-lane sample buffers, flushed lane-major after the run so
        # the recorder's series is byte-identical to running the same
        # traces serially through the reference kernel.
        self._samples: Optional[List[List[tuple]]] = (
            [[] for _ in range(S)] if self.m_every > 0 else None)

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
        """Per-(lane, input) bitmask of non-empty VOQs (inactive lanes'
        rows are garbage; scans must restrict to ``active_ids``)."""
        return self.pack_bool_rows(
            (self.voq.len > 0).reshape(-1, self.NJ))

    # -- shared transfer applicator ----------------------------------------

    def apply_cioq_head_transfers(self, s, q, j, pre=None):
        """Pop the VOQ heads at cells ``q`` of lanes ``s`` and insert them
        into outputs ``j``; where the mask ``pre`` is set, first delete
        the output's tail (a preemption victim, already accounted)."""
        v, p = self.voq.pop_heads(s, q)
        if pre is not None and pre.any():
            self.out.delete_tails(s[pre], j[pre])
        self.out.insert(s, j, v, p)

    # -- slot phases --------------------------------------------------------

    def _arrival_phase(self, t: int) -> None:
        g = self.slot_events[t] if t < self.max_n_arr else None
        if g is None:
            return
        voq = self.voq
        b_in = self.B_in
        accepted = self.accepted[g.lo:g.lo + g.n]
        if self.pushout:
            pushed = np.zeros(g.n, dtype=bool)
            victim = np.empty(g.n)
        for ids in g.rounds:
            s_idx = g.ev_s[ids]
            cells = g.ev_c[ids]
            vals = g.ev_v[ids]
            pids = g.ev_p[ids]
            ln = voq.len[s_idx, cells]
            if self.pushout:
                space = ln < b_in
                tailv = voq.val[s_idx, cells, 0]
                acc = space | (tailv < vals)
                pre = acc & ~space
                if pre.any():
                    voq.delete_tails(s_idx[pre], cells[pre])
                    pushed[ids] = pre
                    victim[ids] = tailv
            else:
                acc = ln < b_in
            voq.insert(s_idx[acc], cells[acc], vals[acc], pids[acc])
            accepted[ids] = acc
        S = self.S
        self.n_arrived += np.bincount(g.ev_s, minlength=S)
        self.n_rejected += np.bincount(g.ev_s[~accepted], minlength=S)
        if self.pushout and pushed.any():
            # Events are lane-major and in arrival order within a lane.
            self.pre_voq.add(g.ev_s[pushed], victim[pushed])

    def _transmit_phase(self, t: int) -> None:
        out = self.out
        nonempty = out.len > 0
        if not self.all_active:
            nonempty &= self.active_mask[:, None]
        ss, jj = np.nonzero(nonempty)
        if ss.size == 0:
            return
        v, _p = out.pop_heads(ss, jj)
        self.n_sent += np.bincount(ss, minlength=self.S)
        self.sent_po[ss, jj] += 1
        self.val_po[ss, jj] += v
        # Each lane adds its sends in output order, zeros between them.
        rows = np.zeros((self.S, self.NJ + 1))
        rows[:, 0] = self.benefit
        rows[ss, jj + 1] = v
        self.benefit = rows.cumsum(axis=1)[:, -1]

    def _occupancy_totals(self) -> Tuple[List[int], List[int], List[int]]:
        """Per lane, the VOQ, crosspoint and output queue-length totals
        (``switch.occupancy_totals()``)."""
        vt = self.voq.len.sum(axis=1).tolist()
        ot = self.out.len.sum(axis=1).tolist()
        ct = (self.cross.len.sum(axis=1).tolist() if self.crossbar
              else [0] * self.S)
        return vt, ct, ot

    def _occupancy_phase(self, t: int) -> None:
        vt, ct, ot = self._occupancy_totals()
        for s in self.active_ids:
            self.results[s].occupancy.append((t, vt[s], ct[s], ot[s]))

    def _sample_phase(self, t: int, sent_before: List[int]) -> None:
        """Buffer one end-of-slot metrics sample per active lane.

        Occupancy totals come from vectorized ``len`` reductions across
        the whole batch (one numpy sum per queue family, not a Python
        walk per lane), matching ``switch.occupancy_totals()`` exactly.
        """
        vt, ct, ot = self._occupancy_totals()
        n_sent = self.n_sent.tolist()
        n_arrived = self.n_arrived.tolist()
        n_rejected = self.n_rejected.tolist()
        n_pre = (self.pre_voq.count + self.pre_cross.count
                 + self.pre_out.count).tolist()
        base = self.metrics_lane
        samples = self._samples
        for s in self.active_ids:
            samples[s].append((
                t, base + s, vt[s], ct[s], ot[s],
                n_sent[s] - sent_before[s], n_arrived[s], n_sent[s],
                n_rejected[s], n_pre[s],
            ))

    def _flush_metrics(self, t_arrival: float, t_schedule: float,
                       t_transmit: float, run0: float) -> None:
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
        if self.m_timed:
            m.add_time("phase_arrival_seconds", t_arrival)
            m.add_time("phase_schedule_seconds", t_schedule)
            m.add_time("phase_transmit_seconds", t_transmit)
            m.add_time("run_seconds", perf_counter() - run0)

    def _retire(self, t: int) -> None:
        if t < self.first_retire:
            return
        # A lane's buffered count is its queue-length total.
        buffered = self.voq.len.sum(axis=1) + self.out.len.sum(axis=1)
        if self.crossbar:
            buffered += self.cross.len.sum(axis=1)
        done = self.active_mask & (
            ((buffered == 0) & (t >= self.n_arr)) | (t + 1 >= self.horizon))
        if done.any():
            self.slots_exec[done] = t + 1
            self.active_mask &= ~done
            self.active_ids = np.flatnonzero(self.active_mask).tolist()
            self.all_active = False

    def _finalize(self) -> List[SimulationResult]:
        n_arrived = self.n_arrived.tolist()
        n_rejected = self.n_rejected.tolist()
        n_pre = [site.count.tolist()
                 for site in (self.pre_voq, self.pre_cross, self.pre_out)]
        v_pre = [site.value_sums()
                 for site in (self.pre_voq, self.pre_cross, self.pre_out)]
        benefit = self.benefit.tolist()
        n_sent = self.n_sent.tolist()
        families = ([self.voq, self.cross, self.out] if self.crossbar
                    else [self.voq, self.out])
        for s, res in enumerate(self.results):
            mine = self.ev_lane == s
            values = self.ev_val[mine]
            accepted = self.accepted[mine]
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
            # Residuals in buffered_packets() order: VOQ grid,
            # (crosspoint grid,) outputs.
            residual = np.concatenate([fam.lane_values(s)
                                       for fam in families])
            res.n_residual = residual.size
            res.value_residual = _sequential_sum(residual)
            res.check_conservation()
        return self.results

    def run(self) -> List[SimulationResult]:
        every = self.m_every
        sampling = every > 0
        timed = self.m_timed
        t_arrival = t_schedule = t_transmit = 0.0
        run0 = perf_counter() if timed else 0.0
        sent_before: List[int] = []
        t = 0
        while self.active_ids:
            sample_slot = sampling and t % every == 0
            if sample_slot:
                sent_before = self.n_sent.tolist()
            if timed:
                ph0 = perf_counter()
                self._arrival_phase(t)
                ph1 = perf_counter()
                t_arrival += ph1 - ph0
                for cyc in range(self.speedup):
                    self.stepper.cycle(t, cyc)
                ph2 = perf_counter()
                t_schedule += ph2 - ph1
                self._transmit_phase(t)
                t_transmit += perf_counter() - ph2
            else:
                self._arrival_phase(t)
                for cyc in range(self.speedup):
                    self.stepper.cycle(t, cyc)
                self._transmit_phase(t)
            if self.trace_occupancy:
                self._occupancy_phase(t)
            if sample_slot:
                self._sample_phase(t, sent_before)
            self._retire(t)
            t += 1
        results = self._finalize()
        if self.metrics is not None:
            self._flush_metrics(t_arrival, t_schedule, t_transmit, run0)
        return results


# ---------------------------------------------------------------------------
# Entry point (called only via the engine's backend dispatch)
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
    trace_occupancy: bool = False,
    metrics=None,
    metrics_lane: int = 0,
) -> List[SimulationResult]:
    """Run ``proto`` (a policy instance used read-only, as the parameter
    prototype) over every trace in lockstep; returns one
    :class:`SimulationResult` per trace, in order.  The engine has
    already checked every trace against ``config``'s port counts.

    With an active ``metrics`` recorder, per-slot samples are buffered
    during the lockstep loop and flushed lane-major afterwards, so the
    recorder ends up byte-identical to serial reference runs over the
    same traces (lane ``i`` is tagged ``metrics_lane + i``)."""
    if record:
        raise BackendUnsupported(
            "the fast backend does not implement record=True event logs"
        )
    if check_invariants:
        raise BackendUnsupported(
            "the fast backend does not implement check_invariants=True"
        )
    if not traces:
        return []
    return _BatchRun(model, proto, config, traces, max_extra_slots,
                     trace_occupancy, metrics, metrics_lane).run()
