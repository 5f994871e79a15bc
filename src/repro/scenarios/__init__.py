"""Scenario registry and declarative experiment subsystem.

Experiments are described by :class:`ScenarioSpec` — a serializable
record of switch, traffic, values, policies, slots, seeds and metrics —
registered under a name (:func:`register_scenario`), executed through
the parallel sweep substrate (:func:`run_scenario`, or
:func:`run_scenarios` for a grid of specs in one executor call), and
persisted as versioned JSON/CSV artifacts under ``results/``
(:func:`write_artifacts`).  The built-in catalog in
:mod:`repro.scenarios.builtin` is documented scenario-by-scenario in
``docs/scenarios.md`` and drives the ``repro scenarios`` CLI verbs.
"""

from .spec import (
    ADAPTIVE_ADVERSARIES,
    ADVERSARIAL_GADGETS,
    KNOWN_METRICS,
    POLICY_CLASSES,
    TRAFFIC_KINDS,
    VALUE_KINDS,
    ScenarioSpec,
    dumps_toml,
    policy_label,
)
from .registry import (
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from .runner import (
    ARTIFACT_VERSION,
    RESULTS_DIR,
    ScenarioRun,
    SpecError,
    run_scenario,
    run_scenarios,
    write_artifacts,
)
from . import builtin  # noqa: F401  (populates the registry on import)

__all__ = [
    "ScenarioSpec",
    "ScenarioRun",
    "SpecError",
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "run_scenario",
    "run_scenarios",
    "write_artifacts",
    "policy_label",
    "dumps_toml",
    "ARTIFACT_VERSION",
    "RESULTS_DIR",
    "TRAFFIC_KINDS",
    "VALUE_KINDS",
    "POLICY_CLASSES",
    "ADVERSARIAL_GADGETS",
    "ADAPTIVE_ADVERSARIES",
    "KNOWN_METRICS",
]
