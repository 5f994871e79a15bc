"""Bursty traffic via a two-state Markov-modulated Bernoulli process.

The paper motivates worst-case analysis by noting that Internet traffic
does not follow Poisson-like models (Paxson & Floyd [29]; Veres & Boda
[32]): real traffic is bursty and correlated.  This model captures that:
each input port has an independent ON/OFF Markov chain; in ON state it
emits ``burst_load`` arrivals per slot (possibly > 1), in OFF state none.

The mean burst length is ``1 / p_off`` slots.  During ON periods several
inputs can simultaneously overload one output (hotspot bursts are
obtained by combining this with a skewed destination distribution).

With a whole ``burst_load``, :meth:`BurstyTraffic._columnar_trace` makes
only the draw loop's RNG calls per slot and turns their doubles into
columns once per trace (see ``docs/traffic_models.md``).
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .base import (
    TrafficModel,
    bernoulli_arrivals,
    destination_cdf,
    normalized_dst_weights,
)
from .trace import Trace
from .values import ValueModel, check_param


#: Heads the per-slot ON inputs, so that no slots still concatenate.
_NO_INPUTS = np.empty(0, dtype=np.int64)


def _int_column(a: np.ndarray) -> array:
    """``a`` as an ``array("q")``, copied from its buffer."""
    col = array("q")
    col.frombytes(memoryview(a.astype(np.int64, copy=False)).cast("B"))
    return col


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

    def _columnar_trace(self, n_slots: int, seed: int, name: str) -> Trace:
        """The draw loop's trace when ``burst_load`` is a whole ``w``;
        the draw loop's own otherwise.

        Per slot the loop draws the inputs' flips (at slot 0 their
        stationary states), then ``w + 1`` doubles per ON input in one
        block (the input's count double, which a whole load ignores,
        then its ``w`` destination doubles), then the slot's values.
        This makes the same calls in the same order, so the generator
        yields the same doubles; only the slot's ON inputs and its
        block are kept.  The count doubles are dropped, the
        destinations found, and sources and arrivals built, once for
        the whole trace.
        """
        if not self.burst_load.is_integer():
            return super()._columnar_trace(n_slots, seed, name)
        w = int(self.burst_load)
        rng = np.random.default_rng(seed)
        random, sample = rng.random, self.value_model.sample
        n_in, p_on, p_off = self.n_in, self.p_on, self.p_off
        ons: List[np.ndarray] = []
        blocks: List[np.ndarray] = []
        value = array("d")
        # As in the draw loop, an overflowing value is refused by the
        # trace check below.
        with np.errstate(over="ignore"):
            for t in range(n_slots):
                if t:
                    flips = random(n_in)
                    state = np.where(state, flips >= p_off, flips < p_on)
                else:
                    state = random(n_in) < p_on / (p_on + p_off)
                on = state.nonzero()[0]
                ons.append(on)
                m = len(on)
                if m:
                    blocks.append(random((w + 1) * m))
                    value.extend(sample(rng, w * m))
        # One numpy column at a time, each copied into its array.
        per_slot = np.fromiter(map(len, ons), dtype=np.int64, count=n_slots)
        arrival = _int_column(np.repeat(np.arange(n_slots), per_slot * w))
        src = _int_column(np.repeat(np.concatenate([_NO_INPUTS, *ons]), w))
        stream = np.concatenate([np.empty(0), *blocks]).reshape(-1, w + 1)
        del blocks
        dst = _int_column(self._dst_cdf.searchsorted(stream[:, 1:],
                                                     side="right").ravel())
        return Trace.from_columns(
            array("q", range(len(value))), value, arrival, src, dst,
            self.n_in, self.n_out, name=name, n_slots=n_slots)
