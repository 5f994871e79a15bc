"""Uniform Bernoulli i.i.d. traffic.

The classical admissible-traffic benchmark for switch scheduling: in
each slot, each input port independently receives a packet with
probability ``load``; its destination is uniform over the output ports.
``load <= 1`` keeps both inputs and outputs under line rate on average;
``load > 1`` is modelled by allowing multiple independent arrivals per
input per slot (a Poisson-ish burst), since the paper's arrival phase
explicitly allows "arbitrarily many packets" per slot.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

import numpy as np

from .base import TrafficModel, bernoulli_count, decode_bernoulli
from .trace import Trace
from .values import ValueModel, check_param


class BernoulliTraffic(TrafficModel):
    """i.i.d. Bernoulli arrivals with uniform destinations.

    Parameters
    ----------
    n_in, n_out:
        Switch dimensions.
    load:
        Expected arrivals per input port per slot.  Values > 1 produce
        ``floor(load)`` deterministic arrivals plus a Bernoulli
        remainder.
    value_model:
        Packet value distribution (default unit).
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        load: float = 0.8,
        value_model: Optional[ValueModel] = None,
    ):
        self.load = check_param("load", load, 0)
        super().__init__(n_in, n_out, value_model, name=f"bernoulli(load={load:g})")

    def arrivals_for_slot(
        self, slot: int, rng: np.random.Generator
    ) -> Tuple[List[int], List[int]]:
        srcs: List[int] = []
        dsts: List[int] = []
        for i in range(self.n_in):
            for _ in range(bernoulli_count(rng, self.load)):
                srcs.append(i)
                dsts.append(int(rng.integers(0, self.n_out)))
        return srcs, dsts

    def _columnar_trace(self, n_slots: int, seed: int, name: str) -> Trace:
        """The draw loop's trace, decoded from the generator's raw words
        where :func:`~repro.traffic.base.decode_bernoulli` can; the
        draw loop's own otherwise."""
        columns = decode_bernoulli(np.random.default_rng(seed), self.n_in,
                                   self.n_out, self.load, n_slots,
                                   self.value_model)
        if columns is None:
            return super()._columnar_trace(n_slots, seed, name)
        arrival, src, dst, value = columns
        return Trace.from_columns(
            array("q", range(len(value))), value, arrival, src, dst,
            self.n_in, self.n_out, name=name, n_slots=n_slots)
