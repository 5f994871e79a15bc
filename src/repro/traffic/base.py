"""Traffic model interface.

A :class:`TrafficModel` turns a seeded RNG and a slot count into a
:class:`~repro.traffic.trace.Trace`.  Models are deterministic given the
seed, so every experiment is replayable.

The common machinery here assigns packet ids in arrival order (the order
arrival events occur within a slot is the id order, matching the paper's
convention that all events happen at distinct fractional times).

One draw loop, :meth:`TrafficModel._slot_arrivals`, makes every draw,
and three consumers share it:

* :meth:`TrafficModel.generate` fills a columnar :class:`Trace` from it,
  stamping pids in arrival order, and builds no
  :class:`~repro.switch.packet.Packet`;
* :meth:`TrafficModel.arrival_source` hands the same draws to the
  engine's ``run_*_streaming`` as a per-slot callback (the engine
  stamps its own pids), so streaming runs are byte-identical to
  materialized ones;
* ``repro trace record`` writes them to a stream file through
  :meth:`TrafficModel.emit`, which stamps pids into packets per slot.

``arrivals_for_slot`` may return either ``(src, dst)`` pairs — their
values are then drawn from ``value_model`` in one bulk call after the
slot's arrival draws, in arrival order — or ``(src, dst, value)``
triples for models (like trace replay) whose values are part of the
instance rather than sampled.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from itertools import count, islice, repeat
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..switch.packet import Packet
from .trace import Trace
from .values import ValueModel, unit_values


def bernoulli_count(rng: np.random.Generator, rate: float) -> int:
    """Arrivals for one (input, slot) cell at expected ``rate``:
    ``floor(rate)`` deterministic arrivals plus a Bernoulli remainder
    (consumes exactly one uniform draw — the shared convention that
    keeps every stochastic model's traces seed-stable)."""
    whole = int(rate)
    return whole + (1 if rng.random() < rate - whole else 0)


def normalized_dst_weights(n_out: int, weights) -> np.ndarray:
    """Validate and normalize a destination distribution; ``None``
    means uniform over the ``n_out`` output ports."""
    if weights is None:
        return np.full(n_out, 1.0 / n_out)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n_out,):
        raise ValueError("dst_weights must be n_out non-negative weights")
    # NaN/inf slip through sign/sum checks (NaN compares False, inf sums
    # to inf), and so do finite weights whose sum overflows to inf.  Any
    # of them would turn the destination cdf into NaNs, which
    # searchsorted silently maps to one port.
    if not np.isfinite(w).all():
        raise ValueError("dst_weights must be finite (got NaN or inf)")
    with np.errstate(over="ignore"):
        total = w.sum()
    if (w < 0).any() or total <= 0:
        raise ValueError("dst_weights must be n_out non-negative weights")
    if total == np.inf:
        raise ValueError("dst_weights must have a finite sum")
    return w / total


def destination_cdf(probs: np.ndarray) -> np.ndarray:
    """The cdf ``rng.choice(n, p=probs)`` rebuilds on every call.

    ``cdf.searchsorted(rng.random(c), side="right")`` then draws ``c``
    destinations that equal ``c`` such ``choice`` calls, from the same
    ``c`` doubles, without re-validating ``probs`` each time.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


class TrafficModel(ABC):
    """Generates traces for an ``n_in x n_out`` switch."""

    def __init__(
        self,
        n_in: int,
        n_out: int,
        value_model: Optional[ValueModel] = None,
        name: str = "traffic",
    ):
        if n_in < 1 or n_out < 1:
            raise ValueError("traffic model needs at least one port per side")
        self.n_in = n_in
        self.n_out = n_out
        self.value_model = value_model if value_model is not None else unit_values()
        self.name = name

    @abstractmethod
    def arrivals_for_slot(
        self, slot: int, rng: np.random.Generator
    ) -> List[tuple]:
        """Return the slot's arrivals as ``(src, dst)`` pairs or
        ``(src, dst, value)`` triples (see the module docstring)."""

    def reset(self) -> None:
        """Clear any cross-slot state so the model can be reused.

        Stateful models (Markov chains, burst generators) override this
        to drop their carried state.  The one draw loop, behind every
        entry point that starts a fresh run, calls it first, so one
        model instance can drive many runs without leaking chain/burst
        state between them.  Stateless models keep this no-op.
        """

    def _slot_arrivals(
        self, seed: int
    ) -> Iterator[List[Tuple[int, int, float]]]:
        """Each slot's ``(src, dst, value)`` arrivals, from slot 0 on,
        without end: the one draw loop.

        The model resets and seeds its generator on the first ``next``.
        Per slot, :meth:`arrivals_for_slot` makes its draws first; if it
        returned ``(src, dst)`` pairs, their values then come from one
        ``value_model.sample(rng, k)`` call, in arrival order.
        """
        self.reset()
        rng = np.random.default_rng(seed)
        sample = self.value_model.sample
        for t in count():
            arrivals = self.arrivals_for_slot(t, rng)
            if arrivals and len(arrivals[0]) == 2:
                arrivals = [(src, dst, v) for (src, dst), v in zip(
                    arrivals, sample(rng, len(arrivals)))]
            yield arrivals

    def emit(self, seed: int = 0) -> Iterator[List[Packet]]:
        """Each slot's packets, from slot 0 on, without end; pids count
        up in arrival order across slots."""
        pids = count()
        for t, arrivals in enumerate(self._slot_arrivals(seed)):
            yield [Packet(next(pids), v, t, src, dst)
                   for src, dst, v in arrivals]

    def generate(self, n_slots: int, seed: int = 0) -> Trace:
        """Generate a trace of ``n_slots`` arrival slots."""
        return self._columnar_trace(
            n_slots, seed, f"{self.name}/{self.value_model.name}/seed{seed}")

    def _columnar_trace(self, n_slots: int, seed: int, name: str) -> Trace:
        """The first ``n_slots`` slots of the draw loop as a trace,
        filled column by column; pids count up in arrival order."""
        value = array("d")
        arrival, src, dst = array("q"), array("q"), array("q")
        for t, arrivals in enumerate(
                islice(self._slot_arrivals(seed), n_slots)):
            if arrivals:
                srcs, dsts, values = zip(*arrivals)
                src.extend(srcs)
                dst.extend(dsts)
                value.extend(values)
                arrival.extend(repeat(t, len(arrivals)))
        return Trace.from_columns(
            array("q", range(len(value))), value, arrival, src, dst,
            self.n_in, self.n_out, name=name, n_slots=n_slots)

    def arrival_source(
        self, seed: int = 0
    ) -> Callable[[int, object], Sequence[Tuple[int, int, float]]]:
        """A per-slot arrival callback for ``run_*_streaming``.

        Returns ``source(t, switch) -> [(src, dst, value), ...]`` over
        the draws behind :meth:`generate`, so a streaming run is
        byte-identical to the materialized ``generate(n_slots, seed)``.
        The engine calls slots in order starting at 0; out-of-order
        calls raise, since skipping a slot would silently
        desynchronize the RNG stream.
        """
        slots = self._slot_arrivals(seed)
        expected = 0

        def source(t: int, switch: object) -> List[Tuple[int, int, float]]:
            nonlocal expected
            if t != expected:
                raise ValueError(
                    f"arrival_source must be called with consecutive slots "
                    f"(expected {expected}, got {t})"
                )
            expected += 1
            return next(slots)

        return source
