"""Streaming moment accumulation (Welford's algorithm).

Replicated experiments aggregate per-seed metrics one batch at a time
as the sweep executor yields them; :class:`Welford` maintains the count,
mean and centered second moment in a single pass without storing the
sample, using the numerically stable update from Welford (1962).
Early-stopping replication adds every batch's values into one
accumulator per policy with :meth:`Welford.add_many`, so the stopping
rule reads the same statistics a single pass over all seeds would give.

The property-based suite pins the claim: streaming mean/variance match
their batch (two-pass) counterparts to 1e-9 relative error.
"""

from __future__ import annotations

import math
from typing import Iterable


class Welford:
    """Single-pass count / mean / variance accumulator.

    ``variance`` is the *sample* variance (``n - 1`` denominator); with
    fewer than two observations it is ``nan``, as are ``std`` and
    ``sem`` — callers that serialize these must map non-finite values to
    ``None`` to stay strict-JSON.
    """

    __slots__ = ("n", "mean", "_m2")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "Welford":
        acc = cls()
        acc.add_many(values)
        return acc

    def add(self, x: float) -> "Welford":
        """Accumulate one observation; returns self for chaining."""
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)
        return self

    def add_many(self, values: Iterable[float]) -> "Welford":
        for x in values:
            self.add(x)
        return self

    @property
    def variance(self) -> float:
        if self.n < 2:
            return float("nan")
        return self._m2 / (self.n - 1)

    @property
    def std(self) -> float:
        var = self.variance
        # Guard the tiny negative values float cancellation can produce.
        return math.sqrt(var) if var == var and var > 0.0 else (
            0.0 if var == 0.0 else float("nan")
        )

    @property
    def sem(self) -> float:
        """Standard error of the mean: ``std / sqrt(n)``."""
        std = self.std
        return std / math.sqrt(self.n) if std == std else float("nan")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Welford(n={self.n}, mean={self.mean!r}, m2={self._m2!r})"
