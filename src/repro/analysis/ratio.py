"""Empirical competitive-ratio measurement.

A *measurement* runs one policy on one trace, computes the exact offline
optimum on the same trace, and reports ``OPT / ONL``.  Because the
competitive ratio is a worst case over all sequences, measured ratios
are always *at most* the theoretical bound (if the implementation is
faithful) and typically far below it on stochastic traffic; adversarial
gadgets (T7) push them upward.

Measurements are the unit every experiment (T1–T4, T6, T7, T9, T10) is
built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

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
        violation it cannot prove.  Use :attr:`certified_within_bound`
        for the stronger claim that the whole bracket fits under the
        bound.  The epsilon absorbs float noise in OPT / ONL only.
        """
        if self.bound is None:
            return True
        r = self.ratio_lo
        return math.isfinite(r) and r <= self.bound + 1e-9

    @property
    def certified_within_bound(self) -> bool:
        """Whether even the certified *upper* ratio end respects the
        bound (for exact measurements: identical to
        :attr:`within_bound`)."""
        if self.bound is None:
            return True
        r = self.ratio_hi
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


def summarize(measurements: Iterable[RatioMeasurement]) -> dict:
    """Aggregate statistics over a batch of measurements.

    ``mean_ratio`` averages the *finite* per-measurement ratios of the
    **exact** measurements only (the per-seed mean, never a ratio of
    summed benefits) — bracketed points never silently enter an
    exact-looking mean.  They contribute instead to the certified
    bracket ``[mean_ratio_lo, mean_ratio_hi]`` on the true mean, which
    averages the certified ratio ends of *all* finite measurements
    (exact points contribute their ratio to both ends).  Unbounded
    measurements are counted in ``n_unbounded`` and surface through
    ``max_ratio`` (inf) rather than poisoning the means.
    """
    ms = list(measurements)
    ratios = [m.ratio for m in ms]
    finite_exact = [m.ratio for m in ms
                    if m.is_exact and math.isfinite(m.ratio)]
    finite_lo = [m.ratio_lo for m in ms if math.isfinite(m.ratio_lo)]
    finite_hi = [m.ratio_hi for m in ms if math.isfinite(m.ratio_hi)]
    n_unbounded = sum(1 for r in ratios if not math.isfinite(r))

    def _mean(vals):
        return sum(vals) / len(vals) if vals else float("nan")

    return {
        "n": len(ms),
        "n_exact": sum(1 for m in ms if m.is_exact),
        "n_bracketed": sum(1 for m in ms if not m.is_exact),
        "n_unbounded": n_unbounded,
        "max_ratio": max(ratios) if ratios else float("nan"),
        "mean_ratio": _mean(finite_exact),
        "mean_ratio_lo": _mean(finite_lo),
        "mean_ratio_hi": _mean(finite_hi),
        "all_within_bound": all(m.within_bound for m in ms),
        "all_certified_within_bound": all(
            m.certified_within_bound for m in ms
        ),
    }


@dataclass
class RatioSummary:
    """CI-aware aggregate of replicated ratio measurements.

    The mean (with its std and normal CI) is the mean of *per-seed*
    ratios over the ``n`` finite **exact** measurements; bracketed
    measurements (inexact OPT) are never mixed into it.  They are
    counted in ``n_bracketed`` and contribute to ``mean_lo`` /
    ``mean_hi``: the certified bracket on the true mean ratio over all
    finite measurements (exact points enter both ends at their exact
    ratio; both are None when every ratio end is unbounded).
    ``n_unbounded`` counts seeds whose conservative ratio was unbounded
    (ONL = 0 < OPT upper) and therefore excluded.  ``ci_lo`` / ``ci_hi``
    bound the exact mean ratio at ``confidence`` level via the normal
    interval of :mod:`repro.stats.ci`; they are None when fewer than
    two finite exact ratios exist.  ``worst`` is conservative: the
    maximum certified *upper* ratio end.
    """

    policy: str
    n: int
    n_unbounded: int
    mean: Optional[float]
    std: Optional[float]
    ci_lo: Optional[float]
    ci_hi: Optional[float]
    worst: float
    confidence: float = 0.95
    all_within_bound: bool = True
    n_bracketed: int = 0
    mean_lo: Optional[float] = None
    mean_hi: Optional[float] = None

    @classmethod
    def from_measurements(
        cls,
        measurements: Iterable[RatioMeasurement],
        confidence: float = 0.95,
    ) -> "RatioSummary":
        # Deferred import: analysis must stay importable without
        # triggering the stats package (which imports the scenario
        # subsystem, which imports this package).
        from ..stats.ci import normal_interval
        from ..stats.welford import Welford

        ms = list(measurements)
        if not ms:
            raise ValueError("no measurements to summarize")
        finite = [m.ratio for m in ms
                  if m.is_exact and m.finite_ratio is not None]
        n_bracketed = sum(1 for m in ms if not m.is_exact)
        acc = Welford.from_values(finite)
        lo, hi = normal_interval(acc.mean, acc.std, acc.n, confidence)
        finite_lo = [m.ratio_lo for m in ms if math.isfinite(m.ratio_lo)]
        finite_hi = [m.ratio_hi for m in ms if math.isfinite(m.ratio_hi)]
        mean_lo = sum(finite_lo) / len(finite_lo) if finite_lo else None
        mean_hi = sum(finite_hi) / len(finite_hi) if finite_hi else None
        return cls(
            policy=ms[0].policy,
            n=len(finite),
            n_unbounded=sum(1 for m in ms if m.finite_ratio is None),
            mean=acc.mean if finite else None,
            std=acc.std if math.isfinite(acc.std) else None,
            ci_lo=lo if math.isfinite(lo) else None,
            ci_hi=hi if math.isfinite(hi) else None,
            worst=max(m.ratio_hi for m in ms),
            confidence=confidence,
            all_within_bound=all(m.within_bound for m in ms),
            n_bracketed=n_bracketed,
            mean_lo=mean_lo,
            mean_hi=mean_hi,
        )

    @property
    def half_width(self) -> Optional[float]:
        if self.ci_lo is None or self.mean is None:
            return None
        return self.mean - self.ci_lo

    def as_row(self) -> dict:
        hw = self.half_width
        row = {
            "policy": self.policy,
            "n": self.n,
            "mean_ratio": round(self.mean, 4) if self.mean is not None
            else None,
            "hw": round(hw, 4) if hw is not None else None,
            "worst": round(self.worst, 4) if math.isfinite(self.worst)
            else None,
            "ok": self.all_within_bound,
        }
        if self.n_bracketed:
            row["n_bracketed"] = self.n_bracketed
            row["mean_lo"] = (
                round(self.mean_lo, 4) if self.mean_lo is not None else None
            )
            row["mean_hi"] = (
                round(self.mean_hi, 4) if self.mean_hi is not None else None
            )
        return row
