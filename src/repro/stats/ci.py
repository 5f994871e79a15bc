"""Confidence intervals: normal (z) and percentile bootstrap.

Both interval kinds are deterministic:

* :func:`normal_interval` uses the two-sided normal quantile from
  :class:`statistics.NormalDist` — appropriate for the replicated-run
  setting where each observation is itself a full simulation (seeds are
  i.i.d. draws) and replicate counts are moderate.  We report z rather
  than Student-t intervals; at the n >= 8 replicate counts the subsystem
  defaults to, the difference is small and the z half-width has the
  clean ``~ 1/sqrt(n)`` shrinkage the acceptance tests pin.
* :func:`bootstrap_interval` is the percentile bootstrap over resampled
  means, driven by the MT19937 stream of ``random.Random(seed)`` so the
  interval is a pure function of (values, confidence, resamples, seed) —
  artifacts carrying bootstrap bounds stay byte-reproducible.  It draws
  that stream in bulk through numpy, with the result of one
  ``randrange(n)`` call per resampled value, bit for bit.

Non-finite results (undefined with n < 2) are returned as ``nan``;
serializers map them to ``None`` to keep artifacts strict JSON.
"""

from __future__ import annotations

import math
import random
from statistics import NormalDist
from typing import List, Sequence, Tuple

import numpy as np

_NAN = float("nan")

#: Resampled values summed per block: bounds the index and value arrays
#: of one call at a few MiB whatever ``len(values) * resamples`` is.
_BLOCK = 1 << 18


def z_value(confidence: float) -> float:
    """Two-sided normal quantile, e.g. ``z_value(0.95) ~= 1.96``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def half_width(std: float, n: int, confidence: float = 0.95) -> float:
    """Normal CI half-width ``z * std / sqrt(n)`` (nan when undefined)."""
    if n < 2 or std != std:
        return _NAN
    return z_value(confidence) * std / math.sqrt(n)


def normal_interval(
    mean: float, std: float, n: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Two-sided normal CI for the mean; ``(nan, nan)`` when undefined."""
    hw = half_width(std, n, confidence)
    if hw != hw:
        return (_NAN, _NAN)
    return (mean - hw, mean + hw)


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending sequence."""
    if not sorted_values:
        return _NAN
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(sorted_values[lo])
    frac = pos - lo
    return float(sorted_values[lo]) * (1 - frac) + float(sorted_values[hi]) * frac


def _mt19937(seed: int) -> "np.random.MT19937":
    """A numpy MT19937 in ``random.Random(seed)``'s state: its
    ``random_raw`` words are that generator's 32-bit outputs, in order."""
    _, state, _ = random.Random(seed).getstate()
    bitgen = np.random.MT19937()
    bitgen.state = {"bit_generator": "MT19937",
                    "state": {"key": np.array(state[:-1], dtype=np.uint32),
                              "pos": state[-1]}}
    return bitgen


def bootstrap_interval(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 1000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap CI for the mean of ``values``.

    Resamples with replacement ``resamples`` times, takes the empirical
    ``(1 - confidence) / 2`` and ``1 - (1 - confidence) / 2`` quantiles
    of the resampled means.  Deterministic in ``seed``.

    Resample ``r`` takes the ``r``-th run of ``n = len(values)``
    indices of ``random.Random(seed).randrange(n)``, and its mean is its
    values added left to right from ``0.0``, divided by ``n``.  Each
    block of resamples sums through a sequential ``np.cumsum`` (the
    ``+ 0.0`` turns an all ``-0.0`` sum into ``0.0``, as a running total
    started at ``0.0`` does); ``np.sum`` adds pairwise and would round
    differently.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    n = len(values)
    if n < 2:
        return (_NAN, _NAN)
    v = np.asarray(values, dtype=np.float64)
    bitgen = _mt19937(seed)
    # randrange(n) keeps the top k = n.bit_length() bits of one 32-bit
    # word and draws again while they are >= n (for n < 2**32); the
    # same rule over words drawn in bulk keeps the same indices.
    k = n.bit_length()
    rows = max(1, _BLOCK // n)
    carry = np.empty(0, dtype=np.uint64)
    sums = []
    for start in range(0, resamples, rows):
        need = min(rows, resamples - start) * n
        parts = [carry]
        have = carry.size
        while have < need:
            # Words for the missing indices at acceptance rate n / 2**k.
            top = bitgen.random_raw(((need - have) << k) // n + 64) >> (32 - k)
            parts.append(top[top < n])
            have += parts[-1].size
        drawn = np.concatenate(parts)
        # Indices drawn past this block open the next one.
        idx, carry = drawn[:need].reshape(-1, n), drawn[need:]
        sums.append(np.cumsum(v[idx], axis=1)[:, -1] + 0.0)
    means: List[float] = (np.concatenate(sums) / n).tolist()
    means.sort()
    alpha = 1.0 - confidence
    return (_quantile(means, alpha / 2.0), _quantile(means, 1.0 - alpha / 2.0))
