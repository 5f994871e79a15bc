"""Parameter-sweep drivers for the experiment suite.

Deterministic grid-sweep helpers shared by the benchmark modules: each
returns plain list-of-dict rows ready for
:func:`repro.analysis.report.format_table`.

Every sweep decomposes into independent
:class:`~repro.parallel.SweepPoint` units and runs through a
:class:`~repro.parallel.SweepExecutor`, so callers can fan the points
out over a worker pool (and reuse cached payloads) by passing
``executor=SweepExecutor(workers=N, cache_dir=...)``.  With the default
serial executor the rows are identical to what the pre-parallel
implementation produced — and, because points are pure and ordered, they
are also bit-identical for any worker count.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from ..core.pg import PGPolicy
from ..core.cpg import CPGPolicy
from ..offline.opt import cioq_opt, crossbar_opt
from ..parallel import SweepExecutor, SweepPoint
from ..switch.config import SwitchConfig
from ..traffic.base import TrafficModel
from ..traffic.trace import Trace
from .ratio import ratio_of


def grid(**params: Sequence) -> List[Dict]:
    """Cartesian product of named parameter lists as dict rows."""
    names = list(params.keys())
    out: List[Dict] = []
    for combo in itertools.product(*(params[n] for n in names)):
        out.append(dict(zip(names, combo)))
    return out


def _executor(executor: Optional[SweepExecutor]) -> SweepExecutor:
    return executor if executor is not None else SweepExecutor()


def beta_sweep_pg(
    trace: Trace,
    config: SwitchConfig,
    betas: Iterable[float],
    opt_benefit: float = None,
    executor: Optional[SweepExecutor] = None,
) -> List[Dict]:
    """PG benefit and ratio as a function of the preemption threshold.

    Computes OPT once (it does not depend on beta) and reruns PG per
    beta.  Used by T2 to locate the empirical optimum and compare with
    the analysis optimum ``1 + sqrt 2``.
    """
    if opt_benefit is None:
        opt_benefit = cioq_opt(trace, config).benefit
    betas = list(betas)
    points = [
        SweepPoint(
            model="cioq",
            config=config,
            trace=trace,
            policy_factory=partial(PGPolicy, beta=float(beta)),
        )
        for beta in betas
    ]
    rows: List[Dict] = []
    for beta, payload in zip(betas, _executor(executor).run(points)):
        benefit = payload["benefit"]
        rows.append(
            {
                "beta": round(float(beta), 4),
                "pg_benefit": round(benefit, 3),
                "opt_benefit": round(opt_benefit, 3),
                "ratio": round(ratio_of(opt_benefit, benefit), 4),
                "preempted": payload["n_preempted"],
                "rejected": payload["n_rejected"],
            }
        )
    return rows


def threshold_sweep_cpg(
    trace: Trace,
    config: SwitchConfig,
    betas: Iterable[float],
    alphas: Iterable[float],
    opt_benefit: float = None,
    executor: Optional[SweepExecutor] = None,
) -> List[Dict]:
    """CPG benefit over a (beta, alpha) grid (T4/T9)."""
    if opt_benefit is None:
        opt_benefit = crossbar_opt(trace, config).benefit
    cells = [(beta, alpha) for beta in betas for alpha in alphas]
    points = [
        SweepPoint(
            model="crossbar",
            config=config,
            trace=trace,
            policy_factory=partial(CPGPolicy, beta=float(beta), alpha=float(alpha)),
        )
        for beta, alpha in cells
    ]
    rows: List[Dict] = []
    for (beta, alpha), payload in zip(cells, _executor(executor).run(points)):
        benefit = payload["benefit"]
        rows.append(
            {
                "beta": round(float(beta), 4),
                "alpha": round(float(alpha), 4),
                "cpg_benefit": round(benefit, 3),
                "opt_benefit": round(opt_benefit, 3),
                "ratio": round(ratio_of(opt_benefit, benefit), 4),
                "preempted": payload["n_preempted"],
            }
        )
    return rows


def speedup_sweep(
    policy_factories: Mapping[str, Callable[[], object]],
    traffic: TrafficModel,
    n_slots: int,
    speedups: Iterable[int],
    base_config: SwitchConfig,
    seeds: Iterable[int] = (0,),
    model: str = "cioq",
    include_opt: bool = True,
    executor: Optional[SweepExecutor] = None,
) -> List[Dict]:
    """Throughput of several policies as speedup varies (T6).

    Every (speedup, seed) cell reruns each policy on the same trace; the
    exact OPT column is included when ``include_opt``.
    """
    seeds = list(seeds)
    traces = {seed: traffic.generate(n_slots, seed=seed) for seed in seeds}
    names = list(policy_factories.keys())

    cells = []
    points: List[SweepPoint] = []
    for s in speedups:
        config = SwitchConfig(
            n_in=base_config.n_in,
            n_out=base_config.n_out,
            speedup=int(s),
            b_in=base_config.b_in,
            b_out=base_config.b_out,
            b_cross=base_config.b_cross,
        )
        for seed in seeds:
            cells.append((int(s), seed))
            trace = traces[seed]
            for name in names:
                points.append(
                    SweepPoint(
                        model=model,
                        config=config,
                        trace=trace,
                        policy_factory=policy_factories[name],
                        seed=seed,
                    )
                )
            if include_opt:
                points.append(
                    SweepPoint(
                        model=model, config=config, trace=trace, seed=seed
                    )
                )

    payloads = iter(_executor(executor).run(points))
    rows: List[Dict] = []
    for s, seed in cells:
        row: Dict = {"speedup": s, "seed": seed, "arrived": len(traces[seed])}
        for name in names:
            row[name] = round(next(payloads)["benefit"], 3)
        if include_opt:
            row["OPT"] = round(next(payloads)["benefit"], 3)
        rows.append(row)
    return rows


def buffer_sweep_crossbar(
    policy_factory: Callable[[], object],
    traffic: TrafficModel,
    n_slots: int,
    b_cross_values: Iterable[int],
    base_config: SwitchConfig,
    seeds: Iterable[int] = (0,),
    executor: Optional[SweepExecutor] = None,
) -> List[Dict]:
    """Crossbar benefit as crosspoint buffer capacity varies (T10)."""
    seeds = list(seeds)
    traces = {seed: traffic.generate(n_slots, seed=seed) for seed in seeds}

    cells = []
    points: List[SweepPoint] = []
    for bc in b_cross_values:
        config = SwitchConfig(
            n_in=base_config.n_in,
            n_out=base_config.n_out,
            speedup=base_config.speedup,
            b_in=base_config.b_in,
            b_out=base_config.b_out,
            b_cross=int(bc),
        )
        for seed in seeds:
            cells.append((int(bc), seed))
            points.append(
                SweepPoint(
                    model="crossbar",
                    config=config,
                    trace=traces[seed],
                    policy_factory=policy_factory,
                    seed=seed,
                )
            )
            points.append(
                SweepPoint(
                    model="crossbar", config=config, trace=traces[seed], seed=seed
                )
            )

    payloads = iter(_executor(executor).run(points))
    rows: List[Dict] = []
    for bc, seed in cells:
        benefit = next(payloads)["benefit"]
        opt_benefit = next(payloads)["benefit"]
        rows.append(
            {
                "b_cross": bc,
                "seed": seed,
                "benefit": round(benefit, 3),
                "opt": round(opt_benefit, 3),
                "ratio": round(ratio_of(opt_benefit, benefit), 4),
            }
        )
    return rows
