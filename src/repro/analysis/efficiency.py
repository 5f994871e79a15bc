"""Per-cycle scheduling cost: greedy maximal vs maximum matchings (T5).

The paper's practicality argument: prior competitive CIOQ algorithms
recompute a *maximum* (cardinality or weight) matching every scheduling
cycle — O(E sqrt V) (Hopcroft–Karp) or O(n^3) (Hungarian) — whereas GM
and PG need a single greedy pass, O(E) after an O(E log E) sort for the
weighted case.  This module measures both the machine-independent
operation counts (via :class:`~repro.scheduling.matching.MatchingStats`)
and wall-clock time per cycle on synthetic switch occupancies of varying
size and density, plus end-to-end instrumented simulations.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from ..scheduling.matching import (
    MatchingStats,
    greedy_maximal_matching,
    greedy_maximal_matching_weighted,
    hopcroft_karp,
    max_weight_matching,
)
from ..switch.packet import sequential_sum


def random_occupancy(
    n: int, density: float, rng: np.random.Generator
) -> np.ndarray:
    """A random 0/1 VOQ-occupancy matrix at the given edge density."""
    return (rng.random((n, n)) < density).astype(np.int64)


def random_weights(
    n: int, density: float, rng: np.random.Generator
) -> np.ndarray:
    """A random weight matrix; zero entries mean 'no edge'."""
    occ = rng.random((n, n)) < density
    w = rng.uniform(1.0, 100.0, size=(n, n))
    return np.where(occ, w, 0.0)


def compare_unit_matching_cost(
    n: int,
    density: float,
    trials: int = 50,
    seed: int = 0,
) -> Dict:
    """Greedy maximal vs Hopcroft–Karp on random unit instances.

    Returns operation counts, per-call wall time, and the matching-size
    ratio (greedy is a 1/2-approximation in theory; in practice it is
    much closer to maximum).
    """
    rng = np.random.default_rng(seed)
    greedy_stats = MatchingStats()
    hk_stats = MatchingStats()
    greedy_sizes = 0
    hk_sizes = 0
    greedy_time = 0.0
    hk_time = 0.0
    for _ in range(trials):
        occ = random_occupancy(n, density, rng)
        edges = [(i, j) for i in range(n) for j in range(n) if occ[i, j]]
        adj = [[j for j in range(n) if occ[i, j]] for i in range(n)]

        t0 = time.perf_counter()
        gm = greedy_maximal_matching(edges, stats=greedy_stats)
        greedy_time += time.perf_counter() - t0
        greedy_sizes += len(gm)

        t0 = time.perf_counter()
        mm = hopcroft_karp(n, n, adj, stats=hk_stats)
        hk_time += time.perf_counter() - t0
        hk_sizes += len(mm)

    return {
        "n": n,
        "density": density,
        "greedy_ops": greedy_stats.total_ops // trials,
        "maxmatch_ops": hk_stats.total_ops // trials,
        "ops_ratio": round(hk_stats.total_ops / max(1, greedy_stats.total_ops), 2),
        "greedy_us": round(1e6 * greedy_time / trials, 2),
        "maxmatch_us": round(1e6 * hk_time / trials, 2),
        "time_ratio": round(hk_time / max(greedy_time, 1e-12), 2),
        "size_ratio": round(greedy_sizes / max(1, hk_sizes), 4),
    }


def compare_weighted_matching_cost(
    n: int,
    density: float,
    trials: int = 20,
    seed: int = 0,
) -> Dict:
    """Greedy-by-weight vs Hungarian on random weighted instances."""
    rng = np.random.default_rng(seed)
    greedy_stats = MatchingStats()
    hung_stats = MatchingStats()
    greedy_weight = 0.0
    hung_weight = 0.0
    greedy_time = 0.0
    hung_time = 0.0
    for _ in range(trials):
        w = random_weights(n, density, rng)
        edges = [
            (i, j, float(w[i, j]))
            for i in range(n)
            for j in range(n)
            if w[i, j] > 0
        ]

        t0 = time.perf_counter()
        gm = greedy_maximal_matching_weighted(edges, stats=greedy_stats)
        greedy_time += time.perf_counter() - t0
        greedy_weight += sequential_sum(e[2] for e in gm)

        t0 = time.perf_counter()
        mw = max_weight_matching(w.tolist(), stats=hung_stats)
        hung_time += time.perf_counter() - t0
        hung_weight += sequential_sum(e[2] for e in mw)

    return {
        "n": n,
        "density": density,
        "greedy_ops": greedy_stats.total_ops // trials,
        "hungarian_ops": hung_stats.total_ops // trials,
        "ops_ratio": round(hung_stats.total_ops / max(1, greedy_stats.total_ops), 2),
        "greedy_us": round(1e6 * greedy_time / trials, 2),
        "hungarian_us": round(1e6 * hung_time / trials, 2),
        "time_ratio": round(hung_time / max(greedy_time, 1e-12), 2),
        "weight_ratio": round(greedy_weight / max(hung_weight, 1e-12), 4),
    }


def efficiency_scaling_table(
    sizes: List[int],
    density: float = 0.6,
    trials: int = 20,
    seed: int = 0,
    weighted: bool = False,
) -> List[Dict]:
    """Cost-vs-N scaling rows for the T5 table."""
    rows = []
    for n in sizes:
        if weighted:
            rows.append(
                compare_weighted_matching_cost(n, density, trials=trials, seed=seed)
            )
        else:
            rows.append(
                compare_unit_matching_cost(n, density, trials=trials, seed=seed)
            )
    return rows
