"""Empirical competitive-ratio measurement.

A *measurement* runs one policy on one trace, computes the exact offline
optimum on the same trace, and reports ``OPT / ONL``.  Because the
competitive ratio is a worst case over all sequences, measured ratios
are always *at most* the theoretical bound (if the implementation is
faithful) and typically far below it on stochastic traffic; adversarial
gadgets (T7) push them upward.

Measurements serve single hand-built traces (``repro ratio``, T7, T11,
T13).  Scenario runs, the theorem tables T1–T4 among them, aggregate
per-seed ratios instead, through :func:`ratio_series`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..offline.opt import cioq_opt, crossbar_opt
from ..scheduling.base import CIOQPolicy, CrossbarPolicy
from ..simulation.engine import run_cioq, run_crossbar
from ..switch.config import SwitchConfig
from ..traffic.trace import Trace


def ratio_of(opt_benefit: float, onl_benefit: float) -> float:
    """The competitive-ratio convention used throughout the repo.

    ``OPT / ONL`` when the online algorithm scored; when it scored
    nothing, the ratio is 1.0 if OPT also scored nothing (an empty
    instance is served perfectly) and +inf if OPT scored (the online
    algorithm is unboundedly bad on this instance).  Benefits are sums
    of positive packet values, so negative inputs indicate a broken
    caller and raise.
    """
    if onl_benefit < 0 or opt_benefit < 0:
        raise ValueError(
            f"benefits cannot be negative: onl={onl_benefit}, "
            f"opt={opt_benefit}"
        )
    if onl_benefit > 0:
        return opt_benefit / onl_benefit
    return 1.0 if opt_benefit == 0 else float("inf")


def per_seed_ratios(
    opt_benefits: Sequence[float], onl_benefits: Sequence[float]
) -> List[Optional[float]]:
    """Per-seed ratios for paired benefit sequences (None where the
    ratio is unbounded, i.e. ONL = 0 < OPT), ready for aggregation.

    Aggregates over replicated runs must average *these* — the mean of
    per-seed ratios — never ``sum(opt) / sum(onl)``: the ratio-of-sums
    lets one high-benefit seed wash out a catastrophic seed entirely
    (see the regression test in ``tests/test_stats.py``).
    """
    if len(opt_benefits) != len(onl_benefits):
        raise ValueError(
            f"paired sequences differ in length: {len(opt_benefits)} "
            f"vs {len(onl_benefits)}"
        )
    out: List[Optional[float]] = []
    for opt, onl in zip(opt_benefits, onl_benefits):
        r = ratio_of(opt, onl)
        out.append(r if math.isfinite(r) else None)
    return out


def ratio_series(
    opt_bounds: Sequence[Tuple[float, float]], onl_benefits: Sequence[float]
) -> Dict[str, List[Optional[float]]]:
    """One policy's per-seed ratio series against the run's per-seed
    certified ``(lower, upper)`` OPT brackets.

    The one ratio rule of a run, read by ``result.json``'s aggregates,
    the summary rows and early stopping alike: when every bracket is
    degenerate (exact OPT) the run has one series, ``ratio``; when any
    bracket is open it has ``ratio_lo`` (OPT_lo / ONL) and ``ratio_hi``
    (OPT_hi / ONL) and no bare ``ratio``, so an inexact denominator
    never passes for an exact one.  Unbounded seeds are None (see
    :func:`per_seed_ratios`).
    """
    hi = [h for _, h in opt_bounds]
    if all(lo == h for lo, h in opt_bounds):
        return {"ratio": per_seed_ratios(hi, onl_benefits)}
    return {
        "ratio_lo": per_seed_ratios([lo for lo, _ in opt_bounds],
                                    onl_benefits),
        "ratio_hi": per_seed_ratios(hi, onl_benefits),
    }


@dataclass
class RatioMeasurement:
    """One (policy, trace) competitive-ratio data point.

    When OPT was computed inexactly (``opt_mode`` "bounds"),
    ``opt_lower``/``opt_upper`` carry the certified bracket and the true
    ratio lies in ``[ratio_lo, ratio_hi]``; ``opt_benefit`` equals the
    conservative upper end.  Exact measurements leave the bracket fields
    ``None`` and both ratio ends collapse onto :attr:`ratio`.
    """

    policy: str
    trace: str
    model: str  # "cioq" or "crossbar"
    onl_benefit: float
    opt_benefit: float
    n_packets: int
    bound: Optional[float] = None
    opt_mode: str = "exact"
    opt_lower: Optional[float] = None
    opt_upper: Optional[float] = None

    @property
    def is_exact(self) -> bool:
        """True when ``opt_benefit`` is the true optimum, not a bracket
        end."""
        return self.opt_lower is None or self.opt_lower == self.opt_upper

    @property
    def ratio(self) -> float:
        """OPT / ONL (1.0 when both are zero; inf when only ONL is zero).

        For bracketed measurements this is the conservative upper-end
        ratio, identical to :attr:`ratio_hi`.
        """
        return ratio_of(self.opt_benefit, self.onl_benefit)

    @property
    def ratio_lo(self) -> float:
        """Certified lower end of the true ratio (equals :attr:`ratio`
        for exact measurements)."""
        if self.opt_lower is None:
            return self.ratio
        return ratio_of(self.opt_lower, self.onl_benefit)

    @property
    def ratio_hi(self) -> float:
        """Certified upper end of the true ratio (equals :attr:`ratio`
        for exact measurements)."""
        if self.opt_upper is None:
            return self.ratio
        return ratio_of(self.opt_upper, self.onl_benefit)

    @property
    def finite_ratio(self) -> Optional[float]:
        """The ratio, or None when it is unbounded — the JSON/CSV-safe
        form (strict JSON has no Infinity)."""
        r = self.ratio
        return r if math.isfinite(r) else None

    @property
    def within_bound(self) -> bool:
        """Whether the measurement is consistent with the proven bound.

        No bound means nothing to violate (vacuously true, even for an
        unbounded ratio).  For exact measurements this is simply
        ``ratio <= bound``.  For bracketed measurements the true ratio
        is only known to lie in ``[ratio_lo, ratio_hi]``, so the
        measurement *violates* the bound only when even the certified
        lower end exceeds it — an inexact OPT never manufactures a
        violation it cannot prove.  The epsilon absorbs float noise in
        OPT / ONL only.
        """
        if self.bound is None:
            return True
        r = self.ratio_lo
        return math.isfinite(r) and r <= self.bound + 1e-9

    def as_row(self) -> dict:
        row = {
            "policy": self.policy,
            "trace": self.trace,
            "onl": round(self.onl_benefit, 3),
            "opt": round(self.opt_benefit, 3),
            # None (rendered "-", serialized null) when unbounded.
            "ratio": round(self.ratio, 4) if self.finite_ratio is not None
            else None,
            "bound": self.bound,
            "ok": self.within_bound,
        }
        if not self.is_exact:
            row["opt_mode"] = self.opt_mode
            row["opt_lo"] = round(self.opt_lower, 3)
            row["opt_hi"] = round(self.opt_upper, 3)
            row["ratio_lo"] = (
                round(self.ratio_lo, 4)
                if math.isfinite(self.ratio_lo) else None
            )
            row["ratio_hi"] = (
                round(self.ratio_hi, 4)
                if math.isfinite(self.ratio_hi) else None
            )
        return row


def _measurement(policy_name, trace, model, onl, opt, bound):
    lo, hi = opt.bracket
    if onl.benefit > hi + 1e-6:
        raise AssertionError(
            f"online benefit {onl.benefit} exceeds OPT upper bound {hi}: "
            f"offline model or engine is wrong"
        )
    exact = opt.mode == "exact"
    return RatioMeasurement(
        policy=policy_name,
        trace=trace.name,
        model=model,
        onl_benefit=onl.benefit,
        opt_benefit=opt.benefit,
        n_packets=len(trace),
        bound=bound,
        opt_mode=opt.mode,
        opt_lower=None if exact else lo,
        opt_upper=None if exact else hi,
    )


def measure_cioq_ratio(
    policy: CIOQPolicy,
    trace: Trace,
    config: SwitchConfig,
    bound: Optional[float] = None,
    opt_mode: str = "exact",
) -> RatioMeasurement:
    """Run ``policy`` and the offline OPT solver on a CIOQ instance."""
    onl = run_cioq(policy, config, trace)
    opt = cioq_opt(trace, config, mode=opt_mode)
    return _measurement(policy.name, trace, "cioq", onl, opt, bound)


def measure_crossbar_ratio(
    policy: CrossbarPolicy,
    trace: Trace,
    config: SwitchConfig,
    bound: Optional[float] = None,
    opt_mode: str = "exact",
) -> RatioMeasurement:
    """Run ``policy`` and the offline OPT solver on a buffered crossbar
    instance."""
    onl = run_crossbar(policy, config, trace)
    opt = crossbar_opt(trace, config, mode=opt_mode)
    return _measurement(policy.name, trace, "crossbar", onl, opt, bound)
