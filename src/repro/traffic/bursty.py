"""Bursty traffic via a two-state Markov-modulated Bernoulli process.

The paper motivates worst-case analysis by noting that Internet traffic
does not follow Poisson-like models (Paxson & Floyd [29]; Veres & Boda
[32]): real traffic is bursty and correlated.  This model captures that:
each input port has an independent ON/OFF Markov chain; in ON state it
emits ``burst_load`` arrivals per slot (possibly > 1), in OFF state none.

The mean burst length is ``1 / p_off`` slots.  During ON periods several
inputs can simultaneously overload one output (hotspot bursts are
obtained by combining this with a skewed destination distribution).
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


class BurstyTraffic(TrafficModel):
    """ON/OFF Markov-modulated arrivals.

    Parameters
    ----------
    n_in, n_out:
        Switch dimensions.
    p_on:
        Per-slot probability of switching OFF -> ON.
    p_off:
        Per-slot probability of switching ON -> OFF (mean burst length
        is ``1/p_off``).
    burst_load:
        Expected arrivals per ON input per slot (may exceed 1).
    dst_weights:
        Optional destination distribution (length ``n_out``); defaults
        to uniform.  A skewed distribution creates hotspot bursts.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        p_on: float = 0.2,
        p_off: float = 0.2,
        burst_load: float = 2.0,
        dst_weights: Optional[Sequence[float]] = None,
        value_model: Optional[ValueModel] = None,
    ):
        for nm, p in (("p_on", p_on), ("p_off", p_off)):
            if not 0.0 < p <= 1.0:
                raise ValueError(f"{nm} must be in (0,1], got {p}")
        self.burst_load = check_param("burst_load", burst_load, 0,
                                      strict=True)
        super().__init__(
            n_in,
            n_out,
            value_model,
            name=f"bursty(on={p_on:g},off={p_off:g},load={burst_load:g})",
        )
        self.p_on = float(p_on)
        self.p_off = float(p_off)
        self._dst_cdf = destination_cdf(
            normalized_dst_weights(n_out, dst_weights))
        self._state: Optional[np.ndarray] = None

    def reset(self) -> None:
        """Drop per-input ON/OFF state so the next run redraws from the
        stationary distribution."""
        self._state = None

    def arrivals_for_slot(
        self, slot: int, rng: np.random.Generator
    ) -> Tuple[List[int], List[int]]:
        if slot == 0 or self._state is None:
            # Start each trace from the chain's stationary distribution.
            pi_on = self.p_on / (self.p_on + self.p_off)
            self._state = rng.random(self.n_in) < pi_on
        else:
            flips = rng.random(self.n_in)
            self._state = np.where(
                self._state, flips >= self.p_off, flips < self.p_on)

        on = np.flatnonzero(self._state)
        srcs, dsts = bernoulli_arrivals(
            rng, on, np.full(on.size, self.burst_load), self._dst_cdf)
        return srcs.tolist(), dsts.tolist()
