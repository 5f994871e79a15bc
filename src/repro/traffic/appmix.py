"""Application-mix traffic: web, video and VoIP sessions composed.

The paper argues worst-case analysis precisely because measured traffic
defies simple stochastic models (Paxson & Floyd; Veres & Boda).  This
model brings the empirical side in: each input port carries a *mix* of
independent application sessions, one session process per traffic
class, composed over the shared :class:`~repro.traffic.base.TrafficModel`
interface so scenarios, benchmarks and the CLI treat it like any other
generator.

Every class is an alternating-renewal session process per input —
geometric idle gaps (``p_start`` per slot), a class-specific
session-length distribution, and an in-session per-slot load emitted
through the shared :func:`~repro.traffic.base.bernoulli_count`
convention.  A session holds one destination for its whole lifetime (a
flow), so concurrent sessions from several inputs can converge on one
output.  The default parameters follow the measurement literature the
repo already cites:

* **web** — request/response bursts whose sizes are heavy-tailed
  (Pareto, tail index ~1.2 per the self-similarity results of
  Paxson–Floyd and the web-traffic measurements behind them): short,
  intense transfers, occasionally enormous.
* **video** — CBR-like streams: rare session starts, long geometric
  durations, a steady ~1 packet/slot while active.
* **voip** — small-packet talk spurts (Brady's ON/OFF conversation
  model): frequent short sessions at low constant rate.

Parameters are plain per-class dicts (TOML-friendly), merged over the
defaults, so a scenario can retune one knob — e.g.
``web = {rate = 2.5}`` — without restating a class.  Setting a class's
``p_start`` to 0 removes it from the mix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import (
    TrafficModel,
    bernoulli_count,
    destination_cdf,
    normalized_dst_weights,
)
from .values import ValueModel, check_param

#: Class order is part of the determinism contract: draws happen in this
#: order each slot, so reordering would change seeded traces.
CLASS_ORDER = ("web", "video", "voip")

#: Literature-grounded defaults (see module docstring).  ``duration`` is
#: either ``"pareto"`` (heavy-tailed; ``shape``/``max_len``) or
#: ``"geometric"`` (``mean_len``).  ``p_start`` is the per-input,
#: per-slot session-start probability (mean idle gap ``1/p_start``);
#: ``rate`` is the expected packets per active session per slot.
DEFAULT_CLASSES: Dict[str, Dict[str, object]] = {
    "web": {
        "p_start": 0.06,
        "duration": "pareto",
        "shape": 1.2,
        "max_len": 100,
        "rate": 1.5,
    },
    "video": {
        "p_start": 0.01,
        "duration": "geometric",
        "mean_len": 150.0,
        "rate": 0.9,
    },
    "voip": {
        "p_start": 0.05,
        "duration": "geometric",
        "mean_len": 20.0,
        "rate": 0.3,
    },
}


def _merged_class(name: str, overrides: Optional[dict]) -> Dict[str, object]:
    params = dict(DEFAULT_CLASSES[name])
    if overrides:
        unknown = set(overrides) - {
            "p_start", "duration", "shape", "max_len", "mean_len", "rate",
        }
        if unknown:
            raise ValueError(
                f"unknown {name} parameter(s): {', '.join(sorted(unknown))}"
            )
        params.update(overrides)
    p_start = float(params["p_start"])
    if not 0.0 <= p_start <= 1.0:
        raise ValueError(f"{name}: p_start must be in [0,1], got {p_start}")
    rate = check_param(f"{name}: rate", params["rate"], 0, strict=True)
    duration = params["duration"]
    if duration == "pareto":
        check_param(f"{name}: shape", params["shape"], 0, strict=True,
                    finite=False)
        check_param(f"{name}: max_len", params["max_len"], 1)
    elif duration == "geometric":
        check_param(f"{name}: mean_len", params["mean_len"], 1)
    else:
        raise ValueError(
            f"{name}: duration must be 'pareto' or 'geometric', "
            f"got {duration!r}"
        )
    params["p_start"] = p_start
    params["rate"] = rate
    return params


class ApplicationMixTraffic(TrafficModel):
    """Composed web/video/VoIP session traffic per input port.

    Parameters
    ----------
    n_in, n_out:
        Switch dimensions.
    web, video, voip:
        Per-class parameter overrides, merged over
        :data:`DEFAULT_CLASSES` (keys: ``p_start``, ``duration``,
        ``shape``/``max_len`` or ``mean_len``, ``rate``).  A class with
        ``p_start = 0`` never starts sessions, i.e. is removed from
        the mix.
    load_scale:
        Global multiplier on every class's in-session ``rate`` —
        scales the offered load of the whole mix without retuning
        session dynamics.
    dst_weights:
        Optional destination distribution (length ``n_out``) shared by
        all classes; defaults to uniform.  Sessions pick their (fixed)
        destination from it, so a skewed distribution turns the mix
        into a hotspot workload.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        web: Optional[dict] = None,
        video: Optional[dict] = None,
        voip: Optional[dict] = None,
        load_scale: float = 1.0,
        dst_weights: Optional[Sequence[float]] = None,
        value_model: Optional[ValueModel] = None,
    ):
        check_param("load_scale", load_scale, 0, strict=True)
        overrides = {"web": web, "video": video, "voip": voip}
        classes = {
            name: _merged_class(name, overrides[name])
            for name in CLASS_ORDER
        }
        label = ",".join(
            f"{name[0]}{float(cfg['rate']) * load_scale:g}"
            for name, cfg in classes.items()
        )
        super().__init__(
            n_in, n_out, value_model, name=f"appmix({label})"
        )
        self.classes = classes
        self.load_scale = float(load_scale)
        self._dst_cdf = destination_cdf(
            normalized_dst_weights(n_out, dst_weights))
        # Active sessions per (class, input): lists of [remaining, dst].
        self._sessions: Optional[Dict[str, List[List[List[int]]]]] = None

    def reset(self) -> None:
        """Drop every in-flight session so the next run starts idle."""
        self._sessions = None

    def _draw_length(
        self, cfg: Dict[str, object], rng: np.random.Generator
    ) -> int:
        if cfg["duration"] == "pareto":
            length = int(np.ceil(rng.pareto(float(cfg["shape"])) + 1e-12)) or 1
            return min(max(length, 1), int(cfg["max_len"]))
        # Geometric with the configured mean, support {1, 2, ...}.
        p = 1.0 / float(cfg["mean_len"])
        return int(rng.geometric(p))

    def arrivals_for_slot(
        self, slot: int, rng: np.random.Generator
    ) -> Tuple[List[int], List[int]]:
        if slot == 0 or self._sessions is None:
            self._sessions = {
                name: [[] for _ in range(self.n_in)] for name in CLASS_ORDER
            }

        srcs: List[int] = []
        dsts: List[int] = []
        for name in CLASS_ORDER:
            cfg = self.classes[name]
            p_start = float(cfg["p_start"])
            rate = float(cfg["rate"]) * self.load_scale
            per_input = self._sessions[name]
            for i in range(self.n_in):
                if p_start > 0.0 and rng.random() < p_start:
                    length = self._draw_length(cfg, rng)
                    dst = int(self._dst_cdf.searchsorted(
                        rng.random(), side="right"))
                    per_input[i].append([length, dst])
                live: List[List[int]] = []
                for session in per_input[i]:
                    c = bernoulli_count(rng, rate)
                    srcs += [i] * c
                    dsts += [session[1]] * c
                    session[0] -= 1
                    if session[0] > 0:
                        live.append(session)
                per_input[i] = live
        return srcs, dsts
