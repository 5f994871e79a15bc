"""Markov-modulated traffic: a k-state load chain per input port.

Generalizes the two-state ON/OFF process of
:class:`~repro.traffic.bursty.BurstyTraffic` to an arbitrary finite
Markov chain over *load levels*: each input port runs an independent
copy of the chain; in state ``s`` it offers ``loads[s]`` expected
arrivals per slot (destinations uniform unless ``dst_weights`` skews
them).  With ``loads=(0, burst)`` and a 2x2 transition matrix this is
exactly the ON/OFF model; with three or more states it produces the
multi-timescale rate variation (quiet / steady / storm phases) that
motivates the paper's worst-case stance — admissible on average, but
transiently far above line rate.

Chains start from their stationary distribution (computed by power
iteration), so traces are statistically homogeneous from slot 0, and
every trace is a pure function of the seed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .base import (
    TrafficModel,
    bernoulli_arrivals,
    destination_cdf,
    normalized_dst_weights,
)
from .values import ValueModel, check_param


def _stationary(transition: np.ndarray, iters: int = 400) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix.

    Iterates the *lazy* chain (P + I)/2, which has the same stationary
    distribution but no periodic components, so the power iteration
    converges even for periodic matrices (plain iteration oscillates on
    those and would silently return a wrong distribution).
    """
    pi = np.full(transition.shape[0], 1.0 / transition.shape[0])
    for _ in range(iters):
        pi = 0.5 * (pi + pi @ transition)
    return pi / pi.sum()


class MarkovModulatedTraffic(TrafficModel):
    """Arrivals modulated by an independent per-input Markov chain.

    Parameters
    ----------
    n_in, n_out:
        Switch dimensions.
    loads:
        Expected arrivals per slot in each chain state (length k,
        entries >= 0; values > 1 emit ``floor`` deterministic arrivals
        plus a Bernoulli remainder, like every stochastic model here).
    transition:
        Row-stochastic k x k matrix; ``transition[s][t]`` is the
        per-slot probability of moving from state ``s`` to state ``t``.
    dst_weights:
        Optional destination distribution (length ``n_out``); defaults
        to uniform.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        loads: Sequence[float] = (0.1, 0.8, 2.5),
        transition: Optional[Sequence[Sequence[float]]] = None,
        dst_weights: Optional[Sequence[float]] = None,
        value_model: Optional[ValueModel] = None,
    ):
        loads_arr = np.asarray(loads, dtype=float)
        if loads_arr.ndim != 1 or loads_arr.size < 1:
            raise ValueError("loads must be a non-empty vector of rates >= 0")
        for load in loads_arr.tolist():
            check_param("loads", load, 0)
        k = loads_arr.size
        if transition is None:
            # Sticky default: stay with p=0.9, otherwise move uniformly.
            trans = np.full((k, k), 0.1 / max(k - 1, 1))
            np.fill_diagonal(trans, 0.9 if k > 1 else 1.0)
        else:
            trans = np.asarray(transition, dtype=float)
        if trans.shape != (k, k) or (trans < 0).any():
            raise ValueError(f"transition must be a non-negative {k}x{k} matrix")
        if not np.allclose(trans.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("transition rows must each sum to 1")
        super().__init__(
            n_in,
            n_out,
            value_model,
            name=f"markov(k={k},loads={','.join(f'{x:g}' for x in loads_arr)})",
        )
        self.loads = loads_arr
        self.transition = trans
        self._cumulative = np.cumsum(trans, axis=1)
        self._pi = _stationary(trans)
        self._dst_cdf = destination_cdf(
            normalized_dst_weights(n_out, dst_weights))
        self._state: Optional[np.ndarray] = None

    def reset(self) -> None:
        """Drop per-input chain state so the next run redraws from the
        stationary distribution instead of leaking the previous run's
        final states."""
        self._state = None

    def arrivals_for_slot(
        self, slot: int, rng: np.random.Generator
    ) -> Tuple[List[int], List[int]]:
        if slot == 0 or self._state is None:
            draws = rng.random(self.n_in)
            cum_pi = np.cumsum(self._pi)
            self._state = np.searchsorted(cum_pi, draws).clip(0, len(self._pi) - 1)
        else:
            draws = rng.random(self.n_in)
            # Per input, searchsorted(row, draw) (side left) counts the
            # row entries below the draw.  Clip like the initial draw:
            # float error can leave row[-1] marginally below 1, and the
            # count would then be an out-of-range state.
            below = self._cumulative[self._state] < draws[:, None]
            self._state = np.minimum(below.sum(axis=1), len(self._pi) - 1)

        srcs, dsts = bernoulli_arrivals(
            rng, np.arange(self.n_in), self.loads[self._state], self._dst_cdf)
        return srcs.tolist(), dsts.tolist()
