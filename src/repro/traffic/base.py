"""Traffic model interface.

A :class:`TrafficModel` turns a seeded RNG and a slot count into a
:class:`~repro.traffic.trace.Trace`.  Models are deterministic given the
seed, so every experiment is replayable.

The common machinery here assigns packet ids in arrival order (the order
arrival events occur within a slot is the id order, matching the paper's
convention that all events happen at distinct fractional times).

One draw loop, :meth:`TrafficModel.slot_arrivals`, makes every draw,
and three consumers share it:

* :meth:`TrafficModel.generate` fills a columnar :class:`Trace` from it,
  stamping pids in arrival order, and builds no
  :class:`~repro.switch.packet.Packet`;
* :meth:`TrafficModel.arrival_source` hands the same draws to the
  engine's ``run_*_streaming`` as a per-slot callback (the engine
  stamps its own pids), so streaming runs are byte-identical to
  materialized ones;
* ``repro trace record`` stamps the same pids into stream rows and
  hands them to :func:`~repro.traffic.trace.write_stream`.

A slot's arrivals stay columns all the way: ``arrivals_for_slot``
returns the slot's ``(srcs, dsts)``, the draw loop adds their values
from ``value_model`` in one bulk call, and ``generate`` extends the
trace's arrays from the three.  Trace replay, whose values are part of
the instance rather than sampled, yields its recording's columns from
its own draw loop instead.

``generate`` reaches the loop through :meth:`TrafficModel._columnar_trace`,
which a model may override with a faster route to the same columns.
Bernoulli traffic with unit or two-value values does:
:func:`decode_bernoulli` reads the generator's raw 64-bit words and
decodes them as numpy's ``Generator.random`` and ``Generator.integers``
would, so the trace is bit-identical to the loop's without a numpy call
per packet.  Bursty traffic with a whole ``burst_load`` makes only the
loop's RNG calls per slot and builds its columns once per trace
(:meth:`repro.traffic.bursty.BurstyTraffic._columnar_trace`).  The loop
stays the reference, and the only route for ``arrival_source``,
``repro trace record`` and every other model.
"""

from __future__ import annotations

from array import array
from itertools import count, islice, repeat
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .trace import Trace
from .values import ValueModel, unit_values


def bernoulli_count(rng: np.random.Generator, rate: float) -> int:
    """Arrivals for one (input, slot) cell at expected ``rate``:
    ``floor(rate)`` deterministic arrivals plus a Bernoulli remainder
    (consumes exactly one uniform draw — the shared convention that
    keeps every stochastic model's traces seed-stable)."""
    whole = int(rate)
    return whole + (1 if rng.random() < rate - whole else 0)


def bernoulli_arrivals(
    rng: np.random.Generator, inputs: np.ndarray, rates: np.ndarray,
    cdf: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(srcs, dsts)`` arrays that the scalar loop

    ``for i, rate in zip(inputs, rates): c = bernoulli_count(rng, rate);
    dsts = cdf.searchsorted(rng.random(c), side="right")``

    yields, one ``src`` per destination, from the same doubles drawn in
    blocks: ``rng`` ends in the state the loop leaves.

    Input ``i`` takes its count draw, ``int(rate)`` destination doubles
    and one more when the count draw falls below the rate's fraction.
    When every rate is whole that layout is fixed, so one block holds
    every draw.  Otherwise a walk reads each count draw in turn and
    tops the drawn stream up to the least the inputs left still take,
    so it never draws a double the loop would not use (rewinding would
    drop a buffered 32-bit half word, see ``docs/traffic_models.md``).
    """
    m = len(inputs)
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    rates = np.asarray(rates, dtype=float)
    whole = rates.astype(np.int64)
    frac = rates - whole
    least = whole + 1  # the doubles input i takes at least
    if not frac.any():
        counts = whole
        starts = np.cumsum(least) - least
        stream = rng.random(int(least.sum()))
    else:
        # rest[i]: the doubles inputs i.. take at least.
        rest = np.cumsum(least[::-1])[::-1].tolist()
        drawn: List[float] = []
        starts_l: List[int] = []
        counts_l: List[int] = []
        p = 0  # the next count draw's index in the stream
        for i, (w, f) in enumerate(zip(whole.tolist(), frac.tolist())):
            need = p + rest[i]
            if len(drawn) < need:
                drawn += rng.random(need - len(drawn)).tolist()
            hit = drawn[p] < f
            if hit and len(drawn) == need:
                drawn.append(rng.random())
            starts_l.append(p)
            counts_l.append(w + hit)
            p += 1 + w + hit
        counts = np.array(counts_l, dtype=np.int64)
        starts = np.array(starts_l, dtype=np.int64)
        stream = np.array(drawn)
    is_dst = np.ones(stream.size, dtype=bool)
    is_dst[starts] = False
    return (np.repeat(np.asarray(inputs, dtype=np.int64), counts),
            cdf.searchsorted(stream[is_dst], side="right"))


#: Raw words :func:`decode_bernoulli` draws per chunk of slots at most
#: (512 KiB); a chunk holds as many slots as fit, and at least one.
_WORD_BLOCK = 1 << 16


def doubles_from_words(words: np.ndarray) -> np.ndarray:
    """The doubles ``Generator.random`` makes of PCG64's raw 64-bit
    words, one word each: the top 53 bits times ``2**-53``."""
    return (words >> 11).astype(np.float64) * 2.0 ** -53


def bounded_from_halves(
    halves: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """What ``Generator.integers(0, n)`` makes of 32-bit half words, for
    ``1 < n <= 2**32``: each half's draw ``(half * n) >> 32`` (Lemire's
    method), and whether numpy keeps it.  numpy draws again while the
    product's low 32 bits fall below ``(2**32 - n) % n``."""
    m = halves * np.uint64(n)
    return m >> 32, (m & 0xFFFFFFFF) >= (2 ** 32 - n) % n


def decode_bernoulli(
    rng: np.random.Generator, n_in: int, n_out: int, load: float,
    n_slots: int, value_model: ValueModel,
) -> Optional[Tuple[array, array, array, array]]:
    """The ``(arrival, src, dst, value)`` columns that
    :class:`~repro.traffic.bernoulli.BernoulliTraffic`'s draw loop makes
    over ``n_slots`` slots from ``rng``, a generator with no buffered
    half word (a fresh one, say), decoded from its raw words; ``None``
    when they cannot be.

    Per slot the loop draws, input by input, a count double (``int(load)``
    arrivals, plus one when it falls below the fraction) and one
    ``integers(0, n_out)`` destination per arrival, then the slot's
    values.  A double takes a whole word.  A destination takes a 32-bit
    half: the low half of a fresh word, whose high half the next
    destination takes, whatever doubles come between; ``n_out = 1``
    takes none.  A value takes ``value_model.doubles_per_value`` doubles
    (unit none, two-value one).  A walk over (slot, input) reads each
    count draw, which fixes every word's use; numpy then gathers the
    destinations and values.  Words are drawn a chunk of slots at a time,
    so the buffer does not grow with ``n_slots``.

    Returns ``None``, and the caller runs the draw loop on a fresh
    generator, unless ``rng`` is a PCG64 one, ``value_model`` states
    ``from_doubles`` and ``n_out <= 2**32`` (numpy draws wider ranges
    from whole words); and also when a destination half would be
    rejected and drawn again, which for ``n_out`` ports has odds below
    ``n_out / 2**32`` a half.
    """
    if (value_model.from_doubles is None or n_out > 2 ** 32
            or not isinstance(rng.bit_generator, np.random.PCG64)):
        return None
    whole = int(load)
    frac = load - whole
    d = value_model.doubles_per_value
    h = 1 if n_out > 1 else 0  # halves per destination
    most = whole + (frac > 0)
    per_slot = n_in + (n_in * most * h + 1) // 2 + n_in * most * d
    chunk = max(1, _WORD_BLOCK // per_slot)
    arrival, src, dst, value = array("q"), array("q"), array("q"), array("d")
    # w: the drawn words; p: the next unread one; odd: 1 while the high
    # half of word w[held] waits for the next destination.
    w = np.empty(0, dtype=np.uint64)
    p = odd = held = 0
    for t0 in range(0, n_slots, chunk):
        slots = min(chunk, n_slots - t0)
        keep = held if odd else p
        w = np.concatenate((w[keep:], rng.bit_generator.random_raw(
            max(0, slots * per_slot - (len(w) - p)))))
        p -= keep
        held -= keep
        hits = doubles_from_words(w) < frac
        hit = hits.tolist()
        odd0 = odd
        count_at: List[int] = []  # each (slot, input)'s count word
        values_at: List[int] = []  # each slot's first value word
        for _ in range(slots):
            k = 0
            for _ in range(n_in):
                c = whole + hit[p]
                count_at.append(p)
                p += 1 + ((c * h - odd + 1) >> 1)
                odd = (odd + c * h) & 1
                k += c
            values_at.append(p)
            p += k * d
        count_word = np.asarray(count_at)
        counts = hits[count_word] + whole
        n = int(counts.sum())
        if not n:
            continue
        cell = np.repeat(np.arange(slots * n_in), counts)
        start = np.cumsum(counts) - counts  # each cell's first packet
        first = start[cell]
        m = np.arange(n)
        slot = cell // n_in
        arrival.frombytes((slot + t0).tobytes())
        src.frombytes((cell % n_in).tobytes())
        if h:
            # Destination m is the chunk's (odd0 + m)-th half draw, and an
            # odd draw takes the high half of the even one's word.  A
            # cell's even draws take the fresh words after its count
            # word; an odd first draw takes the word the destination
            # before it (or the chunk before) left.
            hi = (odd0 + m) & 1
            word = (count_word[cell] + 1 + ((odd0 + m) >> 1)
                    - ((odd0 + first + 1) >> 1))
            carried = (hi == 1) & (m == first)
            word = np.where(carried, np.concatenate(([held], word[:-1])),
                            word)
            x = w[word]
            drawn, kept = bounded_from_halves(
                np.where(hi == 1, x >> 32, x & 0xFFFFFFFF), n_out)
            if not kept.all():
                return None
            dst.frombytes(drawn.astype(np.int64).tobytes())
            if odd:
                held = int(word[-1])
        else:
            dst.frombytes(bytes(8 * n))
        # A slot's value doubles follow its last destination, in order.
        u = (doubles_from_words(
            w[np.asarray(values_at)[slot] + m - start[slot * n_in]])
             if d else None)
        value.frombytes(value_model.from_doubles(n, u).tobytes())
    return arrival, src, dst, value


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


#: One slot's arrivals as columns in arrival order: sources,
#: destinations and values.
SlotColumns = Tuple[Sequence[int], Sequence[int], Sequence[float]]


class TrafficModel:
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

    def arrivals_for_slot(
        self, slot: int, rng: np.random.Generator
    ) -> Tuple[Sequence[int], Sequence[int]]:
        """Draw the slot's arrivals: ``(srcs, dsts)``, two equal-length
        lists of ports in arrival order.  Every stochastic model
        defines this; the draw loop samples the values."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any cross-slot state so the model can be reused.

        Stateful models (Markov chains, burst generators) override this
        to drop their carried state.  The one draw loop, behind every
        entry point that starts a fresh run, calls it first, so one
        model instance can drive many runs without leaking chain/burst
        state between them.  Stateless models keep this no-op.
        """

    def slot_arrivals(self, seed: int) -> Iterator[SlotColumns]:
        """Each slot's ``(srcs, dsts, values)``, from slot 0 on, without
        end: the one draw loop.

        The model resets and seeds its generator on the first ``next``.
        Per slot, :meth:`arrivals_for_slot` makes its draws first; the
        values then come from one ``value_model.sample(rng, k)`` call,
        in arrival order, which an empty slot does not make.
        """
        self.reset()
        rng = np.random.default_rng(seed)
        sample = self.value_model.sample
        for t in count():
            srcs, dsts = self.arrivals_for_slot(t, rng)
            yield srcs, dsts, sample(rng, len(srcs)) if srcs else ()

    def generate(self, n_slots: int, seed: int = 0) -> Trace:
        """Generate a trace of ``n_slots`` arrival slots."""
        return self._columnar_trace(
            n_slots, seed, f"{self.name}/{self.value_model.name}/seed{seed}")

    def _columnar_trace(self, n_slots: int, seed: int, name: str) -> Trace:
        """The first ``n_slots`` slots of the draw loop as a trace,
        filled column by column; pids count up in arrival order."""
        value = array("d")
        arrival, src, dst = array("q"), array("q"), array("q")
        # A value draw that overflows to inf is refused by the trace
        # check below; numpy's overflow warning would only repeat it.
        with np.errstate(over="ignore"):
            for t, (srcs, dsts, values) in enumerate(
                    islice(self.slot_arrivals(seed), n_slots)):
                src.extend(srcs)
                dst.extend(dsts)
                value.extend(values)
                arrival.extend(repeat(t, len(values)))
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
        slots = self.slot_arrivals(seed)
        expected = 0

        def source(t: int, switch: object) -> List[Tuple[int, int, float]]:
            nonlocal expected
            if t != expected:
                raise ValueError(
                    f"arrival_source must be called with consecutive slots "
                    f"(expected {expected}, got {t})"
                )
            expected += 1
            return list(zip(*next(slots)))

        return source
