"""repro — Online Packet Scheduling for CIOQ and Buffered Crossbar Switches.

A faithful, laptop-scale reproduction of

    Kamal Al-Bawani, Matthias Englert, Matthias Westermann:
    "Online Packet Scheduling for CIOQ and Buffered Crossbar Switches",
    SPAA 2016; Algorithmica (2018), doi:10.1007/s00453-018-0421-x.

The package provides:

* the paper's four algorithms (:class:`GMPolicy`, :class:`PGPolicy`,
  :class:`CGUPolicy`, :class:`CPGPolicy`) in :mod:`repro.core`,
* discrete-time simulators of both switch architectures
  (:mod:`repro.switch`, :mod:`repro.simulation`),
* matching engines and baseline schedulers (:mod:`repro.scheduling`),
* traffic generators including adversarial gadgets (:mod:`repro.traffic`),
* an exact offline optimum (:mod:`repro.offline`) against which
  empirical competitive ratios are measured,
* the analysis machinery of the proofs (:mod:`repro.theory`),
* the experiment harness (:mod:`repro.analysis`), and
* multi-seed replication with confidence intervals (:mod:`repro.stats`).

Quickstart::

    from repro import (
        GMPolicy, SwitchConfig, BernoulliTraffic, run_cioq, cioq_opt,
    )

    config = SwitchConfig.square(4, speedup=2, b_in=4, b_out=4)
    trace = BernoulliTraffic(4, 4, load=0.9).generate(n_slots=50, seed=1)
    onl = run_cioq(GMPolicy(), config, trace)
    opt = cioq_opt(trace, config)
    print(f"GM delivered {onl.benefit:g}, OPT {opt.benefit:g}, "
          f"ratio {opt.benefit / onl.benefit:.3f}  (Theorem 1 bound: 3)")
"""

from importlib import import_module

from ._version import PAPER, __version__

# Public names resolve lazily (PEP 562): ``import repro`` stays cheap
# and — crucially — numpy-free, so the reference simulation kernel
# imports and runs on a bare Python install (see docs/backends.md).
# Subsystems that genuinely need numpy (traffic generators, the exact
# offline optimum, the fast kernel) only import it when first touched.
_EXPORTS = {
    # core algorithms
    "BETA_STAR": ".core",
    "CGU_RATIO": ".core",
    "CGUPolicy": ".core",
    "CPGPolicy": ".core",
    "GM_RATIO": ".core",
    "GMPolicy": ".core",
    "PGPolicy": ".core",
    "cpg_optimal_params": ".core",
    "cpg_optimal_ratio": ".core",
    "cpg_ratio": ".core",
    "pg_optimal_beta": ".core",
    "pg_optimal_ratio": ".core",
    "pg_ratio": ".core",
    # offline optimum
    "OPT_MODES": ".offline",
    "bounds_opt": ".offline",
    "cioq_opt": ".offline",
    "crossbar_opt": ".offline",
    "select_opt_mode": ".offline",
    "solve_opt": ".offline",
    # scheduling
    "CIOQPolicy": ".scheduling",
    "CrossbarPolicy": ".scheduling",
    "MaxMatchPolicy": ".scheduling",
    "MaxWeightMatchPolicy": ".scheduling",
    "RandomMatchPolicy": ".scheduling",
    "RoundRobinPolicy": ".scheduling",
    # parallel sweep substrate
    "SweepExecutor": ".parallel",
    "SweepPoint": ".parallel",
    "run_sweep_point": ".parallel",
    # scenario subsystem
    "ScenarioRun": ".scenarios",
    "ScenarioSpec": ".scenarios",
    "all_scenarios": ".scenarios",
    "get_scenario": ".scenarios",
    "register_scenario": ".scenarios",
    "run_scenario": ".scenarios",
    "run_scenarios": ".scenarios",
    "scenario_names": ".scenarios",
    "write_artifacts": ".scenarios",
    # simulation
    "SimulationResult": ".simulation",
    "run_cioq": ".simulation",
    "run_crossbar": ".simulation",
    # replication & statistics
    "ReplicatedRun": ".stats",
    "ReplicationPlan": ".stats",
    "Welford": ".stats",
    "replicate_scenario": ".stats",
    "summarize_artifact": ".stats",
    "write_replicated_artifacts": ".stats",
    # switch
    "CIOQSwitch": ".switch",
    "CrossbarSwitch": ".switch",
    "Packet": ".switch",
    "SwitchConfig": ".switch",
    "render_cioq": ".switch",
    "render_crossbar": ".switch",
    # traffic
    "BernoulliTraffic": ".traffic",
    "BurstyTraffic": ".traffic",
    "DiagonalTraffic": ".traffic",
    "HotspotTraffic": ".traffic",
    "MarkovModulatedTraffic": ".traffic",
    "ParetoBurstTraffic": ".traffic",
    "Trace": ".traffic",
    "TraceReplayTraffic": ".traffic",
    "pareto_values": ".traffic",
    "two_value": ".traffic",
    "uniform_values": ".traffic",
    "unit_values": ".traffic",
}

__all__ = ["PAPER", "__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value  # cache: subsequent access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
