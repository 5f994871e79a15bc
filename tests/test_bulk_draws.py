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
"""

import numpy as np
import pytest

from repro.scenarios.spec import VALUE_KINDS
from repro.traffic.base import (
    bernoulli_arrivals,
    bernoulli_count,
    destination_cdf,
    normalized_dst_weights,
)
from repro.traffic.values import geometric_class_values, two_value, unit_values

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
