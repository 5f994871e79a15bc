"""Packet value models.

The paper's general-value case allows arbitrary positive values; the
literature it cites distinguishes several structured regimes that our
experiments reuse:

* **unit** — all values 1 (the GM/CGU setting);
* **two-value {1, alpha}** — the QoS regime of Englert–Westermann and
  Kobayashi et al. (two service classes); the ratio alpha is the "α"
  of Section 1.2;
* **uniform / exponential / Pareto** — smooth and heavy-tailed value
  mixes used to stress PG/CPG's preemption thresholds.

A value model is a bulk sampler ``(rng, k) -> list of k floats`` plus a
descriptive name.  Each distribution is written once, as one numpy call
with ``size=k``: numpy fills an array from the same stream that ``k``
scalar calls consume, so a bulk draw returns what ``k`` single draws
return and leaves the generator in the same state.  The traffic models
rely on this to draw a whole slot's values at once (see
``docs/traffic_models.md``).  The discrete models hand out one float
object per distinct value, so a trace of unit or class values holds no
float object per packet.

Unit and two-value models also state, next to their sampler, how their
values follow from the doubles ``rng.random`` returns: unit values take
no draw, and a two-value value is ``alpha if u < p_high else 1.0``.
Bernoulli traffic decodes its traces from the generator's raw words
with that rule (:func:`repro.traffic.base.decode_bernoulli`).
"""

from __future__ import annotations

from math import inf
from typing import Callable, List, Optional

import numpy as np


def check_param(name: str, x: float, low: float, strict: bool = False,
                finite: bool = True) -> float:
    """``x`` as a float if it is at least ``low`` (above it when
    ``strict``) and, unless ``finite`` is false, finite; otherwise
    ``ValueError`` naming ``name``.

    Every traffic and value model checks its one-sided parameters here.
    A bare ``x < low`` refusal lets NaN through, since NaN compares
    false; this states the condition that must hold, which NaN fails.
    Infinity passes only where ``finite`` is false: a shape, whose
    infinite limit still draws finite values and counts.
    """
    must = (f"{name} must be {'finite and ' if finite else ''}"
            f"{'>' if strict else '>='} {low:g}")
    try:
        x = float(x)
    except OverflowError:
        # An integer past a float's range (JSON has no size limit).
        raise ValueError(f"{must}, got an integer too large for a float"
                         ) from None
    if not ((x > low if strict else x >= low) and (x < inf or not finite)):
        raise ValueError(f"{must}, got {x}")
    return x


class ValueModel:
    """A named distribution over packet values.

    ``from_doubles``, when set, states how ``sample`` turns doubles into
    values, for a sampler that draws ``doubles_per_value`` (0 or 1)
    doubles per value and nothing else: ``from_doubles(k, u)`` returns,
    as a float64 array, the ``k`` values ``sample(rng, k)`` returns when
    ``rng.random(k * doubles_per_value)`` would return ``u``.
    """

    def __init__(
        self, name: str,
        sample: Callable[[np.random.Generator, int], List[float]],
        from_doubles: Optional[Callable[[int, np.ndarray], np.ndarray]] = None,
        doubles_per_value: int = 1,
    ):
        self.name = name
        self._sample = sample
        self.from_doubles = from_doubles
        self.doubles_per_value = doubles_per_value

    def sample(self, rng: np.random.Generator, k: int) -> List[float]:
        """``k`` values as a list of floats, in draw order.

        Returns what ``k`` calls of ``sample(rng, 1)`` return and leaves
        ``rng`` in the same state, so callers may draw in bulk.
        """
        values = self._sample(rng, k)
        if values and min(values) <= 0:
            raise ValueError(
                f"value model {self.name} produced non-positive {min(values)}"
            )
        return values

    def __call__(self, rng: np.random.Generator) -> float:
        return self.sample(rng, 1)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ValueModel({self.name})"


def unit_values() -> ValueModel:
    """Every packet has value 1 (the unit-value case)."""
    return ValueModel("unit", lambda rng, k: [1.0] * k,
                      from_doubles=lambda k, u: np.ones(k),
                      doubles_per_value=0)


def uniform_values(lo: float = 1.0, hi: float = 100.0) -> ValueModel:
    """Values uniform on [lo, hi]."""
    lo = check_param("lo", lo, 0, strict=True)
    hi = check_param("hi", hi, lo)
    return ValueModel(
        f"uniform[{lo:g},{hi:g}]",
        lambda rng, k: rng.uniform(lo, hi, k).tolist(),
    )


def two_value(alpha: float = 10.0, p_high: float = 0.2) -> ValueModel:
    """Two service classes: value 1 w.p. (1 - p_high), value alpha w.p.
    p_high — the {1, α} regime of Section 1.2's related work."""
    high = check_param("alpha", alpha, 1)
    if not 0.0 <= p_high <= 1.0:
        raise ValueError(f"p_high must be in [0,1], got {p_high}")
    return ValueModel(
        f"two-value(alpha={alpha:g},p={p_high:g})",
        lambda rng, k: [high if h else 1.0
                        for h in (rng.random(k) < p_high).tolist()],
        from_doubles=lambda k, u: np.where(u < p_high, high, 1.0),
    )


def exponential_values(mean: float = 10.0) -> ValueModel:
    """Values 1 + Exp(mean - 1): light-tailed, strictly positive."""
    check_param("mean", mean, 1, strict=True)
    return ValueModel(
        f"exp(mean={mean:g})",
        lambda rng, k: (1.0 + rng.exponential(mean - 1.0, k)).tolist(),
    )


def pareto_values(shape: float = 1.5, scale: float = 1.0) -> ValueModel:
    """Heavy-tailed Pareto values: ``scale * (1 + Pareto(shape))``.

    Small shapes create extreme value skew, the regime where preemption
    decisions (and the beta threshold) matter most.
    """
    check_param("shape", shape, 0, strict=True, finite=False)
    check_param("scale", scale, 0, strict=True)
    return ValueModel(
        f"pareto(shape={shape:g},scale={scale:g})",
        lambda rng, k: (scale * (1.0 + rng.pareto(shape, k))).tolist(),
    )


def geometric_class_values(n_classes: int = 4, base: float = 4.0) -> ValueModel:
    """``n_classes`` priority classes with values base^0..base^(k-1),
    drawn uniformly — models strict-priority QoS tiers."""
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    check_param("base", base, 1, strict=True)
    try:
        values = [float(base ** k) for k in range(n_classes)]
    except OverflowError:
        raise ValueError(
            f"top class value base**{n_classes - 1} overflows a float "
            f"(base={base:g})") from None
    return ValueModel(
        f"classes(k={n_classes},base={base:g})",
        lambda rng, k: [values[i]
                        for i in rng.integers(0, n_classes, k).tolist()],
    )
