"""Bipartite matching engines.

The paper's central systems claim is that *greedy maximal* matchings —
built incrementally by scanning edges once — suffice for 3-/5.83-
competitive CIOQ scheduling, whereas earlier algorithms needed *maximum*
(cardinality or weight) matchings recomputed every scheduling cycle.

This module provides all three engines from scratch:

* :func:`greedy_maximal_matching` — O(E) single pass (GM's engine),
* :func:`greedy_maximal_matching_weighted` — O(E log E) sort + single
  pass (PG's engine),
* :func:`hopcroft_karp` — O(E sqrt(V)) maximum-cardinality matching (the
  engine of the Kesselman–Rosén-style baseline),
* :func:`max_weight_matching` — O(n^3) Hungarian algorithm for maximum-
  weight bipartite matching (baseline for the weighted case).

Every engine can be handed a :class:`MatchingStats` accumulator that
counts primitive operations (edge scans, comparisons, augmentation
steps); the efficiency experiment (T5) uses these counters as a
machine-independent cost model alongside wall-clock timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..switch.packet import sequential_sum

INF = float("inf")

Edge = Tuple[int, int]
WeightedEdge = Tuple[int, int, float]


@dataclass
class MatchingStats:
    """Primitive-operation counters for matching computations."""

    edge_scans: int = 0
    comparisons: int = 0
    augment_steps: int = 0
    calls: int = 0

    def merge(self, other: "MatchingStats") -> None:
        self.edge_scans += other.edge_scans
        self.comparisons += other.comparisons
        self.augment_steps += other.augment_steps
        self.calls += other.calls

    @property
    def total_ops(self) -> int:
        return self.edge_scans + self.comparisons + self.augment_steps


def greedy_maximal_matching(
    edges: Sequence[Edge],
    stats: Optional[MatchingStats] = None,
) -> List[Edge]:
    """Greedy maximal matching: scan edges in the given order, keep an edge
    whenever both endpoints are still free.

    This is precisely the matching computation of algorithm GM
    (Section 2.1): "Start with an empty matching and iterate over all
    edges of E.  Add an edge e to the current matching if e does not
    violate the matching property."

    The result is maximal: no remaining edge has both endpoints free.
    """
    if stats is not None:
        stats.calls += 1
    matched_left: Dict[int, int] = {}
    matched_right: Dict[int, int] = {}
    matching: List[Edge] = []
    for u, v in edges:
        if stats is not None:
            stats.edge_scans += 1
        if u not in matched_left and v not in matched_right:
            matched_left[u] = v
            matched_right[v] = u
            matching.append((u, v))
    return matching


def greedy_maximal_matching_weighted(
    edges: Sequence[WeightedEdge],
    stats: Optional[MatchingStats] = None,
) -> List[WeightedEdge]:
    """Greedy maximal matching over edges scanned in descending weight.

    This is the matching computation of PG (Section 2.2): "iterate over
    all edges of E in a descending order of their weights".  Ties are
    broken deterministically by the (u, v) indices so runs are
    reproducible (Assumption A3's "arbitrary but consistent").

    The resulting matching is a 1/2-approximation of the maximum-weight
    matching — a classical fact the efficiency experiment quantifies.
    """
    if stats is not None:
        stats.calls += 1
        stats.comparisons += int(len(edges) * max(1, _log2ceil(len(edges))))
    ordered = sorted(edges, key=lambda e: (-e[2], e[0], e[1]))
    matched_left: Dict[int, int] = {}
    matched_right: Dict[int, int] = {}
    matching: List[WeightedEdge] = []
    for u, v, w in ordered:
        if stats is not None:
            stats.edge_scans += 1
        if u not in matched_left and v not in matched_right:
            matched_left[u] = v
            matched_right[v] = u
            matching.append((u, v, w))
    return matching


def _log2ceil(n: int) -> int:
    k = 0
    while (1 << k) < n:
        k += 1
    return k


def is_matching(edges: Sequence[Edge]) -> bool:
    """True if no vertex appears twice on its side."""
    left = set()
    right = set()
    for u, v in edges:
        if u in left or v in right:
            return False
        left.add(u)
        right.add(v)
    return True


def is_maximal(matching: Sequence[Edge], edges: Sequence[Edge]) -> bool:
    """True if no edge of ``edges`` could be added to ``matching``."""
    left = {u for u, _ in matching}
    right = {v for _, v in matching}
    return all(u in left or v in right for u, v in edges)


def hopcroft_karp(
    n_left: int,
    n_right: int,
    adj: Sequence[Sequence[int]],
    stats: Optional[MatchingStats] = None,
) -> List[Edge]:
    """Maximum-cardinality bipartite matching (Hopcroft–Karp, from scratch).

    Parameters
    ----------
    n_left, n_right:
        Sizes of the two vertex sides.
    adj:
        ``adj[u]`` lists the right-side neighbours of left vertex ``u``.

    Returns the matching as ``(u, v)`` pairs.  Runs in O(E sqrt(V)); this
    is the per-cycle engine the prior CIOQ algorithms implicitly require,
    and the cost the paper's greedy approach avoids.
    """
    if stats is not None:
        stats.calls += 1
    match_l: List[int] = [-1] * n_left
    match_r: List[int] = [-1] * n_right
    dist: List[float] = [INF] * n_left

    def bfs() -> bool:
        queue: List[int] = []
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for v in adj[u]:
                if stats is not None:
                    stats.edge_scans += 1
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            if stats is not None:
                stats.edge_scans += 1
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                if stats is not None:
                    stats.augment_steps += 1
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                dfs(u)

    return [(u, match_l[u]) for u in range(n_left) if match_l[u] != -1]


def max_weight_matching(
    weights: Sequence[Sequence[float]],
    stats: Optional[MatchingStats] = None,
) -> List[WeightedEdge]:
    """Maximum-weight bipartite matching via the Hungarian algorithm.

    ``weights[u][v]`` is the weight of edge (u, v); entries ``<= 0`` (or
    ``-inf``) mean "no edge".  Vertices may remain unmatched; only edges
    with strictly positive weight are ever used, so the returned matching
    maximizes total weight over all (partial) matchings.

    Implemented from scratch as the standard O(n^3) shortest augmenting
    path formulation (Jonker–Volgenant style with potentials) on the
    cost matrix ``c = -w`` padded to allow non-assignment at cost 0.
    """
    if stats is not None:
        stats.calls += 1
    n_left = len(weights)
    n_right = len(weights[0]) if n_left else 0
    if n_left == 0 or n_right == 0:
        return []

    # Square cost matrix of size n = n_left + n_right: real left vertices
    # may match a "skip" column (cost 0) and vice versa, which models
    # leaving vertices unmatched in the max-weight objective.
    n = n_left + n_right
    big = 0.0
    for row in weights:
        for w in row:
            if w > big:
                big = w

    def cost(u: int, v: int) -> float:
        if u < n_left and v < n_right:
            w = weights[u][v]
            return -w if w > 0 else 0.0
        return 0.0

    # Hungarian algorithm with row-by-row augmentation (1-based internal
    # arrays per the classical implementation).
    pot_u = [0.0] * (n + 1)
    pot_v = [0.0] * (n + 1)
    way = [0] * (n + 1)
    match_of_col = [0] * (n + 1)  # match_of_col[v] = row matched to column v

    for u in range(1, n + 1):
        match_of_col[0] = u
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_of_col[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                if stats is not None:
                    stats.edge_scans += 1
                cur = cost(i0 - 1, j - 1) - pot_u[i0] - pot_v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    pot_u[match_of_col[j]] += delta
                    pot_v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_of_col[j0] == 0:
                break
        while j0:
            if stats is not None:
                stats.augment_steps += 1
            j1 = way[j0]
            match_of_col[j0] = match_of_col[j1]
            j0 = j1

    result: List[WeightedEdge] = []
    for v in range(1, n + 1):
        u = match_of_col[v]
        if 1 <= u <= n_left and 1 <= v <= n_right:
            w = weights[u - 1][v - 1]
            if w > 0:
                result.append((u - 1, v - 1, w))
    return result


def matching_weight(matching: Sequence[WeightedEdge]) -> float:
    """Total weight of a weighted matching."""
    return sequential_sum(w for _, _, w in matching)
