"""Bulk draws equal scalar draws: the numpy behaviour traffic relies on.

Trace generation draws a slot's values in one
:meth:`~repro.traffic.values.ValueModel.sample` call and its
destinations from a cached cdf (:func:`~repro.traffic.base.destination_cdf`),
and bursty and Markov traffic draw a slot's arrival counts and
destinations in blocks (:func:`~repro.traffic.base.bernoulli_arrivals`).
All are bit-identical to one scalar draw per packet only because numpy
fills a ``size=k`` array from the same stream that ``k`` scalar calls
consume.  These tests pin that, value for value and down to the bit
generator's state (PCG64's buffered 32-bit half word included), so a
numpy release that breaks it fails here and not only in a trace digest.

Bernoulli traffic with unit or two-value values goes further and
decodes its traces from PCG64's raw words
(:func:`~repro.traffic.base.decode_bernoulli`).  Later tests pin the
decoding of doubles and bounded draws to numpy, and the decoded traces
to the per-slot draw loop.

Bursty traffic with a whole ``burst_load`` makes only the loop's RNG
calls per slot and builds every column once per trace
(:meth:`~repro.traffic.bursty.BurstyTraffic._columnar_trace`).  The
last tests pin its traces to the per-slot draw loop, bit for bit, and
its refusals of bad values to the loop's.
"""

import random
import warnings

import numpy as np
import pytest

from _strategies import property_seeds
from repro.scenarios.spec import VALUE_KINDS
from repro.traffic import base
from repro.traffic.base import (
    TrafficModel,
    bernoulli_arrivals,
    bernoulli_count,
    bounded_from_halves,
    destination_cdf,
    doubles_from_words,
    normalized_dst_weights,
)
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.bursty import BurstyTraffic
from repro.traffic.values import (
    ValueModel,
    geometric_class_values,
    pareto_values,
    two_value,
    unit_values,
)

SIZES = (1, 2, 7, 100)
SEEDS = (0, 1, 2, 17)


@pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_sample_equals_single_draws(kind, k, seed):
    model = VALUE_KINDS[kind]()
    bulk_rng = np.random.default_rng(seed)
    scalar_rng = np.random.default_rng(seed)
    bulk = model.sample(bulk_rng, k)
    single = [model.sample(scalar_rng, 1)[0] for _ in range(k)]
    assert bulk == single
    assert all(type(v) is float for v in bulk)
    assert bulk_rng.bit_generator.state == scalar_rng.bit_generator.state
    assert model(scalar_rng) == model.sample(bulk_rng, 1)[0]


@pytest.mark.parametrize("weights", [
    None,
    [4.0, 1.0, 2.5, 0.5, 1.0],
    [0.0, 3.0, 0.0, 1.0, 0.0],
], ids=["uniform", "skewed", "zero-weight"])
@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_cdf_draw_equals_choice(weights, k, seed):
    p = normalized_dst_weights(5, weights)
    cdf_rng = np.random.default_rng(seed)
    choice_rng = np.random.default_rng(seed)
    drawn = destination_cdf(p).searchsorted(cdf_rng.random(k), side="right")
    chosen = [int(choice_rng.choice(5, p=p)) for _ in range(k)]
    assert drawn.tolist() == chosen
    assert cdf_rng.bit_generator.state == choice_rng.bit_generator.state


@pytest.mark.parametrize("model", [
    unit_values(),
    two_value(alpha=7, p_high=0.5),
    geometric_class_values(n_classes=3, base=4),
], ids=lambda m: m.name)
def test_discrete_models_share_one_float_per_value(model):
    """A trace keeps every value alive; one object per distinct value
    keeps a unit or class-valued trace's memory at one pointer per
    packet."""
    rng = np.random.default_rng(5)
    values = [v for _ in range(20) for v in model.sample(rng, 50)]
    assert len({id(v) for v in values}) == len(set(values))


def _scalar_arrivals(rng, inputs, rates, cdf):
    """The per-input loop :func:`bernoulli_arrivals` replaces."""
    srcs, dsts = [], []
    for i, rate in zip(inputs, rates):
        c = bernoulli_count(rng, rate)
        if c:
            dsts += cdf.searchsorted(rng.random(c), side="right").tolist()
            srcs += [i] * c
    return srcs, dsts


RATES = {
    "whole": [2.0] * 40,
    "mixed-whole": [0.0, 1.0, 3.0, 2.0, 0.0, 1.0],
    "zero": [0.0] * 9,
    "fractional": [1.3] * 64,
    "mixed": [0.1, 0.8, 2.5, 0.0, 2.0, 0.8, 0.1, 2.5],
    # Count draws that nearly always hit make the walk top up its
    # stream at almost every input, the last one included.
    "near-whole": [0.999, 1.999, 0.999, 2.999, 0.999],
    "single": [0.5],
    "empty": [],
}


@pytest.mark.parametrize("buffered_half", [False, True],
                         ids=["fresh", "buffered-half"])
@pytest.mark.parametrize("rates", list(RATES.values()), ids=list(RATES))
@pytest.mark.parametrize("seed", SEEDS)
def test_bernoulli_arrivals_equal_scalar_loop(rates, seed, buffered_half):
    cdf = destination_cdf(normalized_dst_weights(5, [4.0, 1.0, 2.5, 0.5, 1.0]))
    inputs = [3 * i + 1 for i in range(len(rates))]
    block_rng = np.random.default_rng(seed)
    scalar_rng = np.random.default_rng(seed)
    if buffered_half:
        # A bounded 32-bit draw leaves the other half of its 64-bit word
        # buffered; the block draws must neither use nor drop it.
        block_rng.integers(0, 10)
        scalar_rng.integers(0, 10)
        assert block_rng.bit_generator.state["has_uint32"] == 1
    srcs, dsts = bernoulli_arrivals(block_rng, np.array(inputs, dtype=np.int64),
                                    np.array(rates, dtype=float), cdf)
    assert (srcs.tolist(), dsts.tolist()) == _scalar_arrivals(
        scalar_rng, inputs, rates, cdf)
    assert block_rng.bit_generator.state == scalar_rng.bit_generator.state
    # Both generators go on to draw the same stream.
    assert block_rng.integers(0, 1 << 20, 4).tolist() == \
        scalar_rng.integers(0, 1 << 20, 4).tolist()


# --------------------------------------------------------------------------
# Raw-word decoding (decode_bernoulli)
# --------------------------------------------------------------------------

def test_default_rng_is_pcg64():
    """The decoder reads PCG64's words; default_rng must still make one."""
    assert type(np.random.default_rng(3).bit_generator) is np.random.PCG64


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_doubles_from_words_equal_random(k, seed):
    words = np.random.default_rng(seed).bit_generator.random_raw(k)
    assert (doubles_from_words(words).tolist()
            == np.random.default_rng(seed).random(k).tolist())


def _halves(words):
    """A word's low half, then its high half, word after word: the order
    in which consecutive bounded draws take them."""
    return np.stack((words & 0xFFFFFFFF, words >> 32), axis=1).ravel()


# 3 * 2**30 and 2**31 + 1 reject a quarter and about half of all halves.
@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 64, 3 * 2**30, 2**31 + 1,
                               2**32])
@pytest.mark.parametrize("seed", SEEDS)
def test_bounded_from_halves_equal_integers(n, seed):
    words = np.random.default_rng(seed).bit_generator.random_raw(2000)
    drawn, kept = bounded_from_halves(_halves(words), n)
    scalar_rng = np.random.default_rng(seed)
    expected = [int(scalar_rng.integers(0, n)) for _ in range(2000)]
    assert drawn[kept][:2000].tolist() == expected
    # The draws stopped on the half the decode says: after the 2000th
    # kept half, a low half leaves its word's high half buffered.
    used = int(np.flatnonzero(kept)[1999]) + 1
    state = scalar_rng.bit_generator.state
    assert state["has_uint32"] == used % 2
    if used % 2:
        assert state["uinteger"] == int(words[used // 2] >> 32)


def test_bounded_draw_of_one_value_draws_nothing():
    """``integers(0, 1)`` takes no word and no half, so the decoder
    gives ``n_out = 1`` destinations no draw."""
    rng = np.random.default_rng(4)
    rng.integers(0, 5)  # leave a half buffered
    before = rng.bit_generator.state
    assert [int(rng.integers(0, 1)) for _ in range(5)] == [0] * 5
    assert rng.bit_generator.state == before


def test_doubles_leave_the_buffered_half():
    """A bounded draw after doubles takes the high half of the word the
    previous bounded draw opened, not a fresh word."""
    n = 7
    words = np.random.default_rng(9).bit_generator.random_raw(4)
    rng = np.random.default_rng(9)
    first = int(rng.integers(0, n))
    u = rng.random(2).tolist()
    second = int(rng.integers(0, n))
    (d0, d1), kept = bounded_from_halves(
        np.array([words[0] & 0xFFFFFFFF, words[0] >> 32]), n)
    assert kept.all() and (first, second) == (d0, d1)
    assert u == doubles_from_words(words[1:3]).tolist()


@pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_from_doubles_equals_sample(kind, seed):
    """Unit and two-value models state how their values follow from
    doubles; the rule returns what ``sample`` returns and ``sample``
    draws just those doubles.  No other kind states one."""
    model = VALUE_KINDS[kind]()
    assert (model.from_doubles is not None) == (kind in ("unit", "two-value"))
    if model.from_doubles is not None:
        decode_rng = np.random.default_rng(seed)
        sample_rng = np.random.default_rng(seed)
        u = decode_rng.random(100 * model.doubles_per_value)
        assert (model.from_doubles(100, u).tolist()
                == model.sample(sample_rng, 100))
        assert decode_rng.bit_generator.state == sample_rng.bit_generator.state


def _assert_decoded_equals_loop(model, n_slots, seed):
    decoded = model.generate(n_slots, seed=seed)
    looped = TrafficModel._columnar_trace(model, n_slots, seed, decoded.name)
    assert decoded.columns() == looped.columns()
    assert (decoded.name, decoded.n_slots) == (looped.name, looped.n_slots)
    assert (decoded.n_in, decoded.n_out) == (looped.n_in, looped.n_out)
    return decoded


LOADS = (0, 0.3, 0.8, 1, 1.3, 2, 2.7, 5.5)


@pytest.mark.parametrize("seed", property_seeds())
def test_decoded_trace_equals_slot_loop(seed, monkeypatch):
    """Bernoulli traces decoded from raw words equal the per-slot draw
    loop's, column for column, over a seeded matrix of shapes, loads,
    unit and two-value values and slot counts.  Each case also draws
    the word block, so chunks of one slot up to the default size (and
    the buffered half carried across them) are covered."""
    rng = random.Random(seed)
    blocks = (1, 37, base._WORD_BLOCK)
    for case in range(200):
        monkeypatch.setattr(base, "_WORD_BLOCK", rng.choice(blocks))
        values = (two_value(alpha=rng.uniform(1.0, 50.0),
                            p_high=rng.random())
                  if rng.random() < 0.5 else unit_values())
        model = BernoulliTraffic(rng.randint(1, 9), rng.randint(1, 9),
                                 load=rng.choice(LOADS), value_model=values)
        _assert_decoded_equals_loop(model, rng.randint(0, 150),
                                    rng.randint(0, 10**6))


@pytest.mark.parametrize("n_out", [3 * 2**30, 2**31 + 1, 2**32, 2**32 + 1])
def test_decoded_trace_with_rejected_halves_equals_slot_loop(n_out):
    """Where a destination half would be drawn again, and past 32-bit
    ranges, the trace comes from the draw loop, so it still matches."""
    _assert_decoded_equals_loop(
        BernoulliTraffic(3, n_out, load=1.3, value_model=two_value()), 30, 5)


class _CountingPCG64(np.random.PCG64):
    """PCG64 that records the size of every ``random_raw`` request."""

    def random_raw(self, size=None, output=True):
        self.requests.append(size)
        return super().random_raw(size, output)


def test_decoded_trace_draws_words_in_bounded_blocks():
    """A long trace's words come a block at a time: no request grows
    with the slot count, and together they cover every word read."""
    bit_generator = _CountingPCG64(2)
    bit_generator.requests = []
    n_slots = 100_000
    columns = base.decode_bernoulli(np.random.Generator(bit_generator), 2, 3,
                                    0.3, n_slots, unit_values())
    pid, value, arrival, src, dst = TrafficModel._columnar_trace(
        BernoulliTraffic(2, 3, load=0.3), n_slots, 2, "x").columns()
    assert columns == (arrival, src, dst, value)
    requests = bit_generator.requests
    assert len(requests) > 1 and max(requests) <= base._WORD_BLOCK
    # Two count words a slot, and a word per two destinations.
    assert sum(requests) >= 2 * n_slots + len(pid) // 2


# --------------------------------------------------------------------------
# Bursty traces from the loop's own calls (BurstyTraffic._columnar_trace)
# --------------------------------------------------------------------------

#: Whole loads take the route; 1.5 must take the draw loop.
BURSTY_LOADS = (1, 2, 3, 1.5)


def _bursty_case(rng, kind):
    """A random bursty model: ports 1-9 (1x1 and non-square among
    them), a whole or fractional load, switch probabilities up to 1.0,
    uniform or skewed destinations (zero weights included)."""
    n_in, n_out = rng.choice(((1, 1), (rng.randint(1, 9), rng.randint(1, 9))))
    weights = (None if rng.random() < 0.4 else
               [rng.choice((0.0, rng.uniform(0.1, 9.0))) for _ in range(n_out)])
    if weights is not None and not any(weights):
        weights[rng.randrange(n_out)] = 1.0
    return BurstyTraffic(
        n_in, n_out, p_on=rng.choice((1.0, 0.02, rng.uniform(0.05, 1.0))),
        p_off=rng.choice((1.0, rng.uniform(0.05, 1.0))),
        burst_load=rng.choice(BURSTY_LOADS), dst_weights=weights,
        value_model=VALUE_KINDS[kind]())


@pytest.mark.parametrize("seed", property_seeds())
def test_bursty_route_equals_slot_loop(seed, monkeypatch):
    """Bursty traces with a whole ``burst_load`` make only the draw
    loop's RNG calls per slot and equal its trace column for column,
    bit for bit, over a seeded matrix of shapes, loads, switch
    probabilities, destination weights, every value kind and 0, 1 or
    many slots; a fractional load runs the draw loop itself."""
    loop_calls = []
    loop = TrafficModel._columnar_trace

    def counted(self, *args):
        loop_calls.append(self)
        return loop(self, *args)

    monkeypatch.setattr(TrafficModel, "_columnar_trace", counted)
    rng = random.Random(seed)
    kinds = sorted(VALUE_KINDS)
    routed = gaps = 0
    for case in range(240):
        model = _bursty_case(rng, kinds[case % len(kinds)])
        n_slots = rng.choice((0, 1, rng.randint(2, 120)))
        loop_calls.clear()
        trace = _assert_decoded_equals_loop(model, n_slots,
                                            rng.randint(0, 10**6))
        whole = model.burst_load.is_integer()
        # The comparison runs the loop once; a fractional load twice.
        assert loop_calls == [model] * (1 if whole else 2)
        if whole and n_slots:
            routed += 1
            gaps += len(set(trace.columns()[2])) < n_slots
    # Enough routed traces, some with all-OFF slots, to mean something.
    assert routed > 100 and gaps > 10


@pytest.mark.parametrize("values", [
    ValueModel("rarely-negative",
               lambda rng, k: (rng.random(k) - 0.02).tolist()),
    ValueModel("negative", lambda rng, k: (-rng.random(k)).tolist()),
    pareto_values(shape=1e-3),
    ValueModel("overflowing",
               lambda rng, k: (rng.random(k) * 1e308 * 10).tolist()),
], ids=lambda m: m.name)
def test_bursty_route_refuses_bad_values_as_the_loop_does(values):
    """A non-positive value stops both routes in ``sample`` at the same
    slot (the message names that slot's least value), and a value that
    overflows to inf fails both traces' column check at the same
    packet, with the same message and no numpy overflow warning."""
    model = BurstyTraffic(5, 3, p_on=0.4, p_off=0.3, burst_load=2.0,
                          value_model=values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as routed:
            model.generate(60, seed=4)
        with pytest.raises(ValueError) as looped:
            TrafficModel._columnar_trace(model, 60, 4, "loop")
    assert str(routed.value) == str(looped.value)
