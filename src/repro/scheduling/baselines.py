"""Baseline scheduling policies.

These are the comparators the paper positions its algorithms against:

* :class:`MaxMatchPolicy` — unit-value CIOQ scheduling by *maximum-
  cardinality* matching per cycle (the Kesselman–Rosén style schedule;
  3-competitive but pays O(E sqrt V) per cycle).
* :class:`MaxWeightMatchPolicy` — weighted CIOQ scheduling by *maximum-
  weight* matching per cycle with PG's eligibility/preemption rules
  (the expensive engine PG's greedy maximal matching replaces).
* :class:`RandomMatchPolicy` — greedy maximal matching in a uniformly
  random edge order (sanity baseline; shows GM's ratio is not an
  artifact of the scan order).
* :class:`RoundRobinPolicy` — an iSLIP-flavoured single-iteration
  rotating-priority match (the practical heuristic deployed in real
  CIOQ switches; no competitive guarantee).
* :class:`CrossbarGreedyWeightedPolicy` — CPG without preemption
  thresholds (pure greedy, never preempts); ablation baseline for T9.

All baselines reuse the arrival rules of the corresponding paper
algorithm so that differences isolate the *scheduling phase*.
"""

from __future__ import annotations

from typing import List, Optional

from ..switch.cioq import CIOQSwitch, Transfer
from ..switch.crossbar import CrossbarSwitch
from ..switch.packet import Packet
from .base import CIOQPolicy, CrossbarPolicy, preemptive_arrival, tail_drop_arrival
from .matching import greedy_maximal_matching, hopcroft_karp, max_weight_matching


class MaxMatchPolicy(CIOQPolicy):
    """Unit-value CIOQ scheduling via maximum-cardinality matchings.

    Same arrival/transmission phases as GM; the scheduling phase computes
    a Hopcroft–Karp *maximum* matching on the induced graph each cycle.
    This is the engine prior 3-competitive algorithms required and the
    cost GM avoids (experiment T5 quantifies the gap).
    """

    name = "MaxMatch"

    on_arrival = tail_drop_arrival

    def schedule(self, switch: CIOQSwitch, slot: int, cycle: int) -> List[Transfer]:
        adj: List[List[int]] = [[] for _ in range(switch.n_in)]
        for i in range(switch.n_in):
            for j in range(switch.n_out):
                if not switch.voq[i][j].is_empty and not switch.out[j].is_full:
                    adj[i].append(j)
        matching = hopcroft_karp(switch.n_in, switch.n_out, adj)
        transfers: List[Transfer] = []
        for i, j in matching:
            head = switch.voq[i][j].head()
            assert head is not None
            transfers.append(Transfer(i, j, head))
        return transfers


class MaxWeightMatchPolicy(CIOQPolicy):
    """Weighted CIOQ scheduling via maximum-weight matchings.

    Same arrival, eligibility, preemption and transmission rules as PG
    (with threshold ``beta``); the scheduling phase computes a Hungarian
    *maximum-weight* matching instead of PG's greedy maximal one.  This
    mirrors the 6-competitive algorithm of Kesselman and Rosén [24] that
    PG improves upon.
    """

    def __init__(self, beta: float = 1.0 + 2.0 ** 0.5):
        if beta < 1.0:
            raise ValueError(f"beta must be >= 1, got {beta}")
        self.beta = float(beta)
        self.name = f"MaxWeightMatch(beta={self.beta:.4g})"

    on_arrival = preemptive_arrival

    def schedule(self, switch: CIOQSwitch, slot: int, cycle: int) -> List[Transfer]:
        n_in, n_out = switch.n_in, switch.n_out
        weights = [[0.0] * n_out for _ in range(n_in)]
        heads = {}
        any_edge = False
        for i in range(n_in):
            for j in range(n_out):
                g = switch.voq[i][j].head()
                if g is None:
                    continue
                out_q = switch.out[j]
                if out_q.is_full:
                    tail = out_q.tail()
                    assert tail is not None
                    if not g.value > self.beta * tail.value:
                        continue
                weights[i][j] = g.value
                heads[(i, j)] = g
                any_edge = True
        if not any_edge:
            return []
        matching = max_weight_matching(weights)
        transfers: List[Transfer] = []
        for i, j, _w in matching:
            g = heads[(i, j)]
            out_q = switch.out[j]
            victim = out_q.tail() if out_q.is_full else None
            transfers.append(Transfer(i, j, g, preempt=victim))
        return transfers


class RandomMatchPolicy(CIOQPolicy):
    """GM with a uniformly random edge scan order each cycle."""

    name = "RandomMatch"

    def __init__(self, seed: int = 0):
        # numpy is imported lazily so the module (and the reference
        # backend's whole import chain) works without it; only actually
        # constructing a RandomMatchPolicy requires numpy's bit-exact
        # PCG64 stream.
        import numpy as np

        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self, switch: CIOQSwitch) -> None:
        import numpy as np

        self._rng = np.random.default_rng(self.seed)

    on_arrival = tail_drop_arrival

    def schedule(self, switch: CIOQSwitch, slot: int, cycle: int) -> List[Transfer]:
        edges = [
            (i, j)
            for i in range(switch.n_in)
            for j in range(switch.n_out)
            if not switch.voq[i][j].is_empty and not switch.out[j].is_full
        ]
        if edges:
            order = self._rng.permutation(len(edges))
            edges = [edges[k] for k in order]
        matching = greedy_maximal_matching(edges)
        transfers: List[Transfer] = []
        for i, j in matching:
            head = switch.voq[i][j].head()
            assert head is not None
            transfers.append(Transfer(i, j, head))
        return transfers


class RoundRobinPolicy(CIOQPolicy):
    """Single-iteration iSLIP-flavoured rotating-priority matching.

    Each output port grants to the first requesting input at or after
    its grant pointer; each input accepts the first grant at or after
    its accept pointer; pointers advance past successful matches.  This
    is the one-iteration core of iSLIP (McKeown), the de-facto hardware
    heuristic, included as the "current practice" baseline in T6.
    """

    name = "RoundRobin"

    def __init__(self):
        self._grant_ptr: List[int] = []
        self._accept_ptr: List[int] = []

    def reset(self, switch: CIOQSwitch) -> None:
        self._grant_ptr = [0] * switch.n_out
        self._accept_ptr = [0] * switch.n_in

    on_arrival = tail_drop_arrival

    def schedule(self, switch: CIOQSwitch, slot: int, cycle: int) -> List[Transfer]:
        n_in, n_out = switch.n_in, switch.n_out
        if not self._grant_ptr:
            self.reset(switch)

        requests = [
            [
                not switch.voq[i][j].is_empty and not switch.out[j].is_full
                for j in range(n_out)
            ]
            for i in range(n_in)
        ]

        # Grant: each output picks the first requesting input from its pointer.
        grants: List[List[int]] = [[] for _ in range(n_in)]
        for j in range(n_out):
            for di in range(n_in):
                i = (self._grant_ptr[j] + di) % n_in
                if requests[i][j]:
                    grants[i].append(j)
                    break

        # Accept: each input picks the first granting output from its pointer.
        transfers: List[Transfer] = []
        for i in range(n_in):
            if not grants[i]:
                continue
            best = min(grants[i], key=lambda j: (j - self._accept_ptr[i]) % n_out)
            head = switch.voq[i][best].head()
            assert head is not None
            transfers.append(Transfer(i, best, head))
            self._accept_ptr[i] = (best + 1) % n_out
            self._grant_ptr[best] = (i + 1) % n_in
        return transfers


class CrossbarGreedyWeightedPolicy(CrossbarPolicy):
    """CPG stripped of its preemption thresholds (never preempts).

    Arrival accepts only into non-full VOQs; the subphases move the
    greatest-value eligible packets but refuse to preempt.  Ablation
    baseline isolating the contribution of CPG's threshold machinery.
    """

    name = "CrossbarGreedy(no-preempt)"

    on_arrival = tail_drop_arrival

    def input_subphase(
        self, switch: CrossbarSwitch, slot: int, cycle: int
    ) -> List[Transfer]:
        transfers: List[Transfer] = []
        for i in range(switch.n_in):
            best: Optional[Packet] = None
            best_j = -1
            for j in range(switch.n_out):
                if switch.cross[i][j].is_full:
                    continue
                g = switch.voq[i][j].head()
                if g is not None and (best is None or g.beats(best)):
                    best = g
                    best_j = j
            if best is not None:
                transfers.append(Transfer(i, best_j, best))
        return transfers

    def output_subphase(
        self, switch: CrossbarSwitch, slot: int, cycle: int
    ) -> List[Transfer]:
        transfers: List[Transfer] = []
        for j in range(switch.n_out):
            if switch.out[j].is_full:
                continue
            best: Optional[Packet] = None
            best_i = -1
            for i in range(switch.n_in):
                gc = switch.cross[i][j].head()
                if gc is not None and (best is None or gc.beats(best)):
                    best = gc
                    best_i = i
            if best is not None:
                transfers.append(Transfer(best_i, j, best))
        return transfers
