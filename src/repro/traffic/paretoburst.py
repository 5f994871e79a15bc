"""Heavy-tailed burst traffic: Pareto-distributed ON periods.

The ON/OFF and Markov models have geometrically distributed burst
lengths — light tails, short-range dependence.  Measured network
traffic instead shows heavy-tailed activity periods (the self-similarity
literature the paper cites: Paxson–Floyd, Veres–Boda).  This model makes
each input alternate geometric OFF gaps with ON bursts whose lengths are
drawn from a Pareto distribution: ``len = ceil(Pareto(shape))`` slots,
so for ``shape <= 2`` burst lengths have infinite variance and a single
burst occasionally dominates an entire trace.

Each burst picks one destination and holds it for the burst's whole
duration (an incast-style flow), which concentrates the heavy tail on a
single output queue — the hardest regime for admission decisions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .base import TrafficModel, bernoulli_count
from .values import ValueModel, check_param

#: The largest ``max_burst``: the int64 maximum.
_MAX_BURST = int(np.iinfo(np.int64).max)


class ParetoBurstTraffic(TrafficModel):
    """Alternating-renewal arrivals with Pareto ON periods.

    Parameters
    ----------
    n_in, n_out:
        Switch dimensions.
    shape:
        Pareto tail index of the burst length (smaller = heavier tail;
        ``shape <= 2`` gives infinite variance).
    p_start:
        Per-slot probability that an idle input starts a burst (OFF
        gaps are geometric with mean ``1/p_start``).
    burst_load:
        Expected arrivals per ON input per slot (may exceed 1).
    max_burst:
        Hard cap on a single burst's length in slots, so one tail draw
        cannot exceed the trace horizon by orders of magnitude.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        shape: float = 1.5,
        p_start: float = 0.15,
        burst_load: float = 2.0,
        max_burst: int = 1000,
        value_model: Optional[ValueModel] = None,
    ):
        self.shape = check_param("shape", shape, 0, strict=True,
                                 finite=False)
        if not 0.0 < p_start <= 1.0:
            raise ValueError(f"p_start must be in (0,1], got {p_start}")
        self.burst_load = check_param("burst_load", burst_load, 0,
                                      strict=True)
        self.max_burst = int(check_param("max_burst", max_burst, 1))
        if self.max_burst > _MAX_BURST:
            # A burst's remaining length is an int64 counter.
            raise ValueError(f"max_burst must be at most {_MAX_BURST}, "
                             f"got {max_burst:g}")
        super().__init__(
            n_in,
            n_out,
            value_model,
            name=f"pareto-burst(shape={shape:g},load={burst_load:g})",
        )
        self.p_start = float(p_start)
        # Per-input renewal state: remaining ON slots and the burst's target.
        self._remaining: Optional[np.ndarray] = None
        self._target: Optional[np.ndarray] = None

    def reset(self) -> None:
        """Drop in-flight burst state (remaining length and target) so
        the next run starts with every input idle."""
        self._remaining = None
        self._target = None

    def _draw_burst(self, rng: np.random.Generator, i: int) -> None:
        # Clamp in float: a tiny shape draws inf, which int() refuses.
        length = min(np.ceil(rng.pareto(self.shape) + 1e-12), self.max_burst)
        self._remaining[i] = max(int(length), 1)
        self._target[i] = int(rng.integers(0, self.n_out))

    def arrivals_for_slot(
        self, slot: int, rng: np.random.Generator
    ) -> Tuple[List[int], List[int]]:
        if slot == 0 or self._remaining is None:
            self._remaining = np.zeros(self.n_in, dtype=np.int64)
            self._target = np.zeros(self.n_in, dtype=np.int64)

        srcs: List[int] = []
        dsts: List[int] = []
        for i in range(self.n_in):
            if self._remaining[i] <= 0 and rng.random() < self.p_start:
                self._draw_burst(rng, i)
            if self._remaining[i] <= 0:
                continue
            self._remaining[i] -= 1
            c = bernoulli_count(rng, self.burst_load)
            srcs += [i] * c
            dsts += [int(self._target[i])] * c
        return srcs, dsts
