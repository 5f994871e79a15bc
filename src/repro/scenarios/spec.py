"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, serializable description of one
experiment: which switch, which traffic model with which parameters,
which packet-value distribution, which policies, how many slots and
seeds, and which result metrics to export.  Specs are plain data — they
round-trip through TOML and JSON losslessly — so every experiment in
the repository can be named, versioned, diffed and re-run without
touching code.

The module also owns the *kind registries* that make specs declarative:

* :data:`TRAFFIC_KINDS` — traffic-model constructors by kind name
  (``bernoulli``, ``bursty``, ``hotspot``, ``diagonal``, ``markov``,
  ``pareto-burst``, ``appmix``, ``replay``, ``adversarial``);
* :data:`VALUE_KINDS` — value-model factories by kind name;
* :data:`POLICY_CLASSES` — policy classes by (switch model, name),
  shared with the CLI's policy tables.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import tomllib
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import CGUPolicy, CPGPolicy, GMPolicy, PGPolicy
from ..scheduling.baselines import (
    MaxMatchPolicy,
    MaxWeightMatchPolicy,
    RandomMatchPolicy,
    RoundRobinPolicy,
)
from ..scheduling.fifo import FifoCIOQPolicy, FifoCrossbarPolicy
from ..switch.config import SwitchConfig
from ..traffic import (
    ApplicationMixTraffic,
    BernoulliTraffic,
    BurstyTraffic,
    DiagonalTraffic,
    HotspotTraffic,
    MarkovModulatedTraffic,
    ParetoBurstTraffic,
    TraceReplayTraffic,
    TrafficModel,
    ValueModel,
)
from ..traffic.adversarial import (
    FullQueuePressureAdversary,
    PreemptionBaitAdversary,
    RotatingBurstAdversary,
    SingleOutputOverloadAdversary,
    beta_admission_gadget,
    burst_reject_gadget,
    escalating_values_gadget,
    generate_adaptive_trace,
    two_value_contention_gadget,
)
from ..traffic.values import (
    exponential_values,
    geometric_class_values,
    pareto_values,
    two_value,
    uniform_values,
    unit_values,
)

# --------------------------------------------------------------------------
# Kind registries
# --------------------------------------------------------------------------

#: Policy classes by switch model and scenario/CLI name.
POLICY_CLASSES: Dict[str, Dict[str, Callable[..., object]]] = {
    "cioq": {
        "gm": GMPolicy,
        "pg": PGPolicy,
        "maxmatch": MaxMatchPolicy,
        "maxweight": MaxWeightMatchPolicy,
        "roundrobin": RoundRobinPolicy,
        "random": RandomMatchPolicy,
        "fifo": FifoCIOQPolicy,
    },
    "crossbar": {
        "cgu": CGUPolicy,
        "cpg": CPGPolicy,
        "fifo": FifoCrossbarPolicy,
    },
}

#: Value-model factories by kind name; each accepts the spec's
#: ``value_params`` as keyword arguments.
VALUE_KINDS: Dict[str, Callable[..., ValueModel]] = {
    "unit": unit_values,
    "uniform": uniform_values,
    "two-value": two_value,
    "exponential": exponential_values,
    "pareto": pareto_values,
    "classes": geometric_class_values,
}

#: Deterministic adversarial gadgets usable via the ``adversarial``
#: traffic kind (``traffic_params["gadget"]`` selects one; remaining
#: params go to the gadget function).
ADVERSARIAL_GADGETS: Dict[str, Callable[..., object]] = {
    "burst-reject": burst_reject_gadget,
    "escalating-values": escalating_values_gadget,
    "beta-admission": beta_admission_gadget,
    "two-value-contention": two_value_contention_gadget,
}

#: Adaptive adversaries usable via ``traffic_params["adversary"]``; the
#: attack is generated against the CIOQ policy named by
#: ``traffic_params["policy"]`` (default ``"gm"``) on the scenario's
#: switch config, then replayed as a fixed trace — equivalent in power
#: to the oblivious adversary for deterministic algorithms.
ADAPTIVE_ADVERSARIES: Dict[str, Callable[..., object]] = {
    "single-output-overload": SingleOutputOverloadAdversary,
    "rotating-burst": RotatingBurstAdversary,
    "full-queue-pressure": FullQueuePressureAdversary,
    "preemption-bait": PreemptionBaitAdversary,
}


def _require_unit_values(kind: str, value_model: ValueModel) -> None:
    """Recorded/gadget traces carry their own packet values; a spec
    that also names a value distribution would misdescribe the data in
    its artifacts, so reject the combination."""
    if value_model.name != "unit":
        raise ValueError(
            f"{kind} traffic carries its own packet values; leave the "
            f"scenario's 'values' at its default ('unit'), got "
            f"{value_model.name!r}"
        )


def _adversarial_attack(
    config: SwitchConfig, value_model: ValueModel, params: Mapping
) -> Callable[[int], TrafficModel]:
    """Check an adversarial spec's params and return its build, a
    function of the slot count.  The check generates nothing; the build
    generates the gadget or the adaptive attack."""
    _require_unit_values("adversarial", value_model)
    params = dict(params)
    gadget_name = params.pop("gadget", None)
    adversary_name = params.pop("adversary", None)
    if (gadget_name is None) == (adversary_name is None):
        raise ValueError(
            "adversarial traffic needs exactly one of 'gadget' "
            f"({sorted(ADVERSARIAL_GADGETS)}) or 'adversary' "
            f"({sorted(ADAPTIVE_ADVERSARIES)})"
        )
    if adversary_name is not None:
        if adversary_name not in ADAPTIVE_ADVERSARIES:
            raise ValueError(
                f"unknown adaptive adversary {adversary_name!r}; choose "
                f"from {sorted(ADAPTIVE_ADVERSARIES)}"
            )
        victim = params.pop("policy", "gm")
        if victim not in POLICY_CLASSES["cioq"]:
            raise ValueError(
                f"adaptive adversaries attack CIOQ policies; unknown "
                f"policy {victim!r}"
            )
        victim_params = dict(params.pop("policy_params", {}))
        cls = POLICY_CLASSES["cioq"][victim]
        factory = partial(cls, **victim_params) if victim_params else cls
        adversary = ADAPTIVE_ADVERSARIES[adversary_name](**params)
        return lambda slots: TraceReplayTraffic(generate_adaptive_trace(
            factory, config, adversary, n_slots=slots))
    if gadget_name not in ADVERSARIAL_GADGETS:
        raise ValueError(
            f"unknown adversarial gadget {gadget_name!r}; choose from "
            f"{sorted(ADVERSARIAL_GADGETS)}"
        )
    if config.n_in != config.n_out:
        raise ValueError("adversarial gadgets need a square switch")
    repeat = bool(params.pop("repeat", False))
    gadget = ADVERSARIAL_GADGETS[gadget_name]
    return lambda slots: TraceReplayTraffic(gadget(n=config.n_in, **params),
                                            repeat=repeat)


def _build_adversarial(
    config: SwitchConfig, slots: int, value_model: ValueModel, params: Mapping
) -> TrafficModel:
    return _adversarial_attack(config, value_model, params)(slots)


def _build_replay(
    config: SwitchConfig, slots: int, value_model: ValueModel, params: Mapping
) -> TrafficModel:
    _require_unit_values("replay", value_model)
    params = dict(params)
    path = params.pop("path", None)
    if not path:
        raise ValueError("replay traffic needs a 'path' param")
    model = TraceReplayTraffic(str(path), repeat=bool(params.pop("repeat", False)))
    if params:
        raise ValueError(f"unknown replay params: {sorted(params)}")
    if (model.n_in, model.n_out) != (config.n_in, config.n_out):
        raise ValueError(
            f"recorded trace is {model.n_in}x{model.n_out} but the scenario "
            f"switch is {config.n_in}x{config.n_out}"
        )
    return model


def _stochastic(cls) -> Callable[..., TrafficModel]:
    def build(config: SwitchConfig, slots: int, value_model: ValueModel,
              params: Mapping):
        return cls(config.n_in, config.n_out, value_model=value_model,
                   **params)

    return build


#: Traffic-model builders by kind name.  Each takes
#: ``(config, slots, value_model, params)`` and returns a TrafficModel
#: (``slots`` matters only to the adaptive-adversary kind, which
#: generates its attack up front).
TRAFFIC_KINDS: Dict[str, Callable[..., TrafficModel]] = {
    "bernoulli": _stochastic(BernoulliTraffic),
    "bursty": _stochastic(BurstyTraffic),
    "hotspot": _stochastic(HotspotTraffic),
    "diagonal": _stochastic(DiagonalTraffic),
    "markov": _stochastic(MarkovModulatedTraffic),
    "pareto-burst": _stochastic(ParetoBurstTraffic),
    "appmix": _stochastic(ApplicationMixTraffic),
    "replay": _build_replay,
    "adversarial": _build_adversarial,
}

#: Kinds whose ``load`` caps the arrivals per input and slot at
#: ``ceil(load)``.
LOAD_KINDS = ("bernoulli", "hotspot", "diagonal")

#: The most arrivals a spec's trace may bound: the fast kernel numbers
#: a batch's packets in int32.
MAX_ARRIVALS = 2 ** 31 - 1

#: Payload fields a spec may select as export metrics (OPT rows only
#: carry ``benefit``).
KNOWN_METRICS = (
    "benefit",
    "n_sent",
    "n_arrived",
    "n_accepted",
    "n_rejected",
    "n_preempted",
    "n_residual",
    "value_arrived",
)

_SWITCH_DEFAULTS = {
    "n_in": 4,
    "n_out": 4,
    "speedup": 1,
    "b_in": 4,
    "b_out": 4,
    "b_cross": 1,
}

#: Keys a spec's ``replicates`` block may carry, with their defaults
#: (documented key-by-key in ``docs/statistics.md``; consumed by
#: :class:`repro.stats.ReplicationPlan`).  ``target_half_width`` has no
#: default — when present it enables sequential early stopping.
REPLICATES_DEFAULTS = {
    "n": 8,
    "base_seed": 0,
    "confidence": 0.95,
    "bootstrap": 0,
    "bootstrap_seed": 0,
    "target_metric": "benefit",
    "batch": 8,
}


def _validate_replicates(block: Mapping, include_opt: bool,
                         metrics: Tuple[str, ...]) -> None:
    """Validate a spec's ``replicates`` block (empty means disabled)."""
    known = set(REPLICATES_DEFAULTS) | {"target_half_width"}
    unknown = set(block) - known
    if unknown:
        raise ValueError(
            f"unknown replicates keys: {sorted(unknown)}; choose from "
            f"{sorted(known)}"
        )
    merged = {**REPLICATES_DEFAULTS, **block}
    if not isinstance(merged["n"], int) or merged["n"] < 2:
        raise ValueError(
            f"replicates.n must be an int >= 2 (one seed has no "
            f"variance), got {merged['n']!r}"
        )
    for key in ("base_seed", "bootstrap", "bootstrap_seed", "batch"):
        if not isinstance(merged[key], int):
            raise ValueError(f"replicates.{key} must be an int, "
                             f"got {merged[key]!r}")
    if merged["base_seed"] < 0:
        # numpy's generators refuse negative seeds.
        raise ValueError("replicates.base_seed must be >= 0")
    if merged["bootstrap"] < 0:
        raise ValueError("replicates.bootstrap must be >= 0")
    if merged["batch"] < 1:
        raise ValueError("replicates.batch must be >= 1")
    conf = merged["confidence"]
    if not isinstance(conf, (int, float)) or not 0.0 < conf < 1.0:
        raise ValueError(
            f"replicates.confidence must be a fraction in (0, 1), "
            f"got {conf!r}"
        )
    if "target_half_width" in block:
        thw = block["target_half_width"]
        if not isinstance(thw, (int, float)) or thw <= 0:
            raise ValueError(
                f"replicates.target_half_width must be > 0 (omit the "
                f"key to disable early stopping), got {thw!r}"
            )
    metric = merged["target_metric"]
    if metric == "ratio":
        if not include_opt:
            raise ValueError(
                "replicates.target_metric 'ratio' needs include_opt"
            )
    elif metric != "benefit" and metric not in metrics:
        # Early stopping watches per-seed values; a metric the scenario
        # does not export would leave the stopping rule starved forever
        # (all seeds always run) — reject it up front.
        raise ValueError(
            f"replicates.target_metric {metric!r} is not exported by "
            f"this scenario; choose from "
            f"{('benefit', 'ratio') + tuple(metrics)}"
        )


def _freeze(value):
    """Recursively wrap mappings in read-only views (and sequences in
    tuples) so registered specs really are immutable."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: _freeze(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    """Inverse of :func:`_freeze`: plain dicts/lists for serialization."""
    if isinstance(value, Mapping):
        return {k: _thaw(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_thaw(v) for v in value]
    return value


def policy_label(entry: Mapping) -> str:
    """Display/column label of one policy entry: ``pg(beta=1.5)``."""
    params = {k: v for k, v in entry.items() if k not in ("name", "label")}
    if "label" in entry:
        return str(entry["label"])
    if not params:
        return str(entry["name"])
    # repr keeps full float precision so closely spaced parametrizations
    # (e.g. a fine beta sweep) never collide into one label.
    inner = ",".join(f"{k}={params[k]!r}" if isinstance(params[k], float)
                     else f"{k}={params[k]}" for k in sorted(params))
    return f"{entry['name']}({inner})"


# --------------------------------------------------------------------------
# The spec
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, serializable experiment description.

    Parameters
    ----------
    name:
        Registry key and artifact directory name (kebab-case).
    description:
        One-line intent, shown by ``repro scenarios list``.
    model:
        Switch model: ``"cioq"`` or ``"crossbar"``.
    switch:
        :class:`SwitchConfig` fields (``n_in``, ``n_out``, ``speedup``,
        ``b_in``, ``b_out``, ``b_cross``); missing fields take the
        defaults in :data:`_SWITCH_DEFAULTS`.
    traffic, traffic_params:
        Traffic kind (a :data:`TRAFFIC_KINDS` key) and its parameters.
    values, value_params:
        Value-model kind (a :data:`VALUE_KINDS` key) and parameters.
    policies:
        Policy entries: mappings with a ``name`` key (a
        :data:`POLICY_CLASSES` key for the model), optional ``label``,
        and any further keys passed to the policy constructor —
        ``{"name": "pg", "beta": 1.5}``.
    slots:
        Arrival slots per run.
    seeds:
        Seeds, one independent trace per seed.
    include_opt:
        Also solve the exact offline optimum per seed (adds the OPT
        column and per-policy ratio aggregates).
    metrics:
        Payload fields exported to the per-(seed, policy) metrics table
        (subset of :data:`KNOWN_METRICS`).
    replicates:
        Optional replication block (empty mapping = disabled).  Keys
        (see :data:`REPLICATES_DEFAULTS` and ``docs/statistics.md``):
        ``n`` replicate seeds starting at ``base_seed``, aggregated with
        mean/stddev and ``confidence``-level normal CIs, optionally
        ``bootstrap`` percentile-bootstrap resamples
        (``bootstrap_seed``), and sequential early stopping in batches
        of ``batch`` seeds once ``target_metric``'s CI half-width drops
        to ``target_half_width``.  A spec with a non-empty block runs
        replicated by default under ``repro scenarios run``.
    expected:
        One-line qualitative expectation, shown in the catalog docs and
        ``repro scenarios show``.
    """

    name: str
    description: str = ""
    model: str = "cioq"
    switch: Mapping[str, int] = field(default_factory=dict)
    traffic: str = "bernoulli"
    traffic_params: Mapping[str, object] = field(default_factory=dict)
    values: str = "unit"
    value_params: Mapping[str, object] = field(default_factory=dict)
    policies: Tuple[Mapping[str, object], ...] = ({"name": "gm"},)
    slots: int = 40
    seeds: Tuple[int, ...] = (0, 1, 2)
    include_opt: bool = True
    metrics: Tuple[str, ...] = ("benefit", "n_sent", "n_rejected",
                               "n_preempted", "n_residual")
    replicates: Mapping[str, object] = field(default_factory=dict)
    expected: str = ""

    def __post_init__(self) -> None:
        # Freeze the mapping/sequence fields: specs are shared through
        # the registry, and a caller mutating e.g.
        # ``spec.policies[0]["beta"]`` in place would silently corrupt
        # every later run while artifacts keep the stale label.
        for name in ("switch", "traffic_params", "value_params",
                     "policies", "replicates"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        # Kebab-case names only: the name doubles as the artifact
        # directory under results/, so path-like names (separators,
        # dots) must never reach os.path.join.
        if not re.fullmatch(r"[a-z0-9][a-z0-9-]*", self.name or ""):
            raise ValueError(
                f"scenario name must be kebab-case ([a-z0-9-], starting "
                f"alphanumeric), got {self.name!r}"
            )
        if self.model not in POLICY_CLASSES:
            raise ValueError(f"unknown switch model {self.model!r}")
        if self.traffic not in TRAFFIC_KINDS:
            raise ValueError(
                f"unknown traffic kind {self.traffic!r}; choose from "
                f"{sorted(TRAFFIC_KINDS)}"
            )
        if self.values not in VALUE_KINDS:
            raise ValueError(
                f"unknown value kind {self.values!r}; choose from "
                f"{sorted(VALUE_KINDS)}"
            )
        unknown = set(self.switch) - set(_SWITCH_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown switch fields: {sorted(unknown)}")
        if not self.policies:
            raise ValueError("scenario needs at least one policy")
        table = POLICY_CLASSES[self.model]
        for entry in self.policies:
            if "name" not in entry:
                raise ValueError(f"policy entry without a name: {entry!r}")
            if entry["name"] not in table:
                raise ValueError(
                    f"unknown policy {entry['name']!r} for model "
                    f"{self.model}; choose from {sorted(table)}"
                )
        labels = [policy_label(e) for e in self.policies]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"duplicate policy labels: {labels} (give entries an "
                f"explicit distinct 'label')"
            )
        # Labels become result-row columns; reserved column names would
        # silently overwrite the seed/arrived/OPT data.
        reserved = {"seed", "arrived", "OPT"} & set(labels)
        if reserved:
            raise ValueError(
                f"policy labels collide with reserved result columns: "
                f"{sorted(reserved)}"
            )
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if not self.seeds:
            raise ValueError("scenario needs at least one seed")
        if any(s < 0 for s in self.seeds):
            # numpy's generators refuse negative seeds.
            raise ValueError(f"seeds must be >= 0, got {list(self.seeds)}")
        for m in self.metrics:
            if m not in KNOWN_METRICS:
                raise ValueError(
                    f"unknown metric {m!r}; choose from {KNOWN_METRICS}"
                )
        if self.replicates:
            _validate_replicates(self.replicates, self.include_opt,
                                 self.metrics)

    # -- construction helpers ----------------------------------------------

    def build_config(self) -> SwitchConfig:
        fields = dict(_SWITCH_DEFAULTS)
        fields.update(self.switch)
        return SwitchConfig(**fields)

    def build_value_model(self) -> ValueModel:
        return VALUE_KINDS[self.values](**dict(self.value_params))

    def build_traffic(self) -> TrafficModel:
        return TRAFFIC_KINDS[self.traffic](
            self.build_config(), self.slots, self.build_value_model(),
            dict(self.traffic_params),
        )

    def check_traffic(self) -> None:
        """Raise what :meth:`build_traffic` would, generating no trace:
        building a stochastic or replay model reads at most a trace
        header, and the adversarial kind is checked without its build.

        A :data:`LOAD_KINDS` load is also refused when its arrival bound
        ``n_in * ceil(load) * slots`` exceeds :data:`MAX_ARRIVALS`:
        drawing such a trace could exhaust memory before any point ran,
        and the fast kernel could not number its packets."""
        if self.traffic == "adversarial":
            _adversarial_attack(self.build_config(),
                                self.build_value_model(),
                                self.traffic_params)
            return
        traffic = self.build_traffic()
        if self.traffic in LOAD_KINDS:
            bound = traffic.n_in * math.ceil(traffic.load) * self.slots
            if bound > MAX_ARRIVALS:
                raise ValueError(
                    f"load {traffic.load:g} bounds arrivals by n_in * "
                    f"ceil(load) * slots = {bound}, more than "
                    f"{MAX_ARRIVALS} (2**31 - 1)")

    def policy_factories(self) -> List[Tuple[str, Callable[[], object]]]:
        """(label, picklable zero-arg factory) per policy entry."""
        table = POLICY_CLASSES[self.model]
        out: List[Tuple[str, Callable[[], object]]] = []
        for entry in self.policies:
            params = {k: v for k, v in entry.items()
                      if k not in ("name", "label")}
            cls = table[entry["name"]]
            factory = partial(cls, **params) if params else cls
            out.append((policy_label(entry), factory))
        return out

    def policy_labels(self) -> List[str]:
        return [policy_label(e) for e in self.policies]

    def with_overrides(
        self,
        slots: Optional[int] = None,
        seeds: Optional[Sequence[int]] = None,
        **kwargs,
    ) -> "ScenarioSpec":
        """A copy with the given fields replaced (`--slots/--seed` hook)."""
        if slots is not None:
            kwargs["slots"] = int(slots)
        if seeds is not None:
            kwargs["seeds"] = tuple(int(s) for s in seeds)
        return dataclasses.replace(self, **kwargs) if kwargs else self

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "model": self.model,
            "switch": _thaw(self.switch),
            "traffic": self.traffic,
            "traffic_params": _thaw(self.traffic_params),
            "values": self.values,
            "value_params": _thaw(self.value_params),
            "policies": [_thaw(e) for e in self.policies],
            "slots": self.slots,
            "seeds": list(self.seeds),
            "include_opt": self.include_opt,
            "metrics": list(self.metrics),
            "replicates": _thaw(self.replicates),
            "expected": self.expected,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        data = dict(data)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        if "policies" in data:
            data["policies"] = tuple(dict(e) for e in data["policies"])
        if "seeds" in data:
            data["seeds"] = tuple(int(s) for s in data["seeds"])
        if "metrics" in data:
            data["metrics"] = tuple(str(m) for m in data["metrics"])
        return cls(**data)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def to_toml(self) -> str:
        return dumps_toml(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(tomllib.loads(text))

    @classmethod
    def from_file(cls, path: str) -> "ScenarioSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if str(path).endswith(".json"):
            return cls.from_json(text)
        return cls.from_toml(text)


# --------------------------------------------------------------------------
# Minimal TOML emitter (stdlib tomllib only parses)
# --------------------------------------------------------------------------

_TOML_STR_ESCAPES = {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\t": "\\t",
                     "\n": "\\n", "\f": "\\f", "\r": "\\r"}

_BARE_KEY = re.compile(r"[A-Za-z0-9_-]+")


def _toml_key(key: str) -> str:
    """A key, quoted unless it is TOML bare-key safe — so exports of
    specs with unusual param names still parse back."""
    if _BARE_KEY.fullmatch(key):
        return key
    return _toml_scalar(key)


def _toml_scalar(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        escaped = "".join(
            _TOML_STR_ESCAPES.get(ch)
            or (f"\\u{ord(ch):04X}" if ord(ch) < 0x20 or ch == "\x7f" else ch)
            for ch in value
        )
        return f'"{escaped}"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_scalar(v) for v in value) + "]"
    if isinstance(value, Mapping):
        # Inline table — used for dicts nested below the top level
        # (e.g. an adaptive adversary's policy_params).
        inner = ", ".join(f"{_toml_key(k)} = {_toml_scalar(v)}"
                          for k, v in value.items())
        return "{" + (f" {inner} " if inner else "") + "}"
    raise TypeError(f"cannot emit {type(value).__name__} as TOML")


def dumps_toml(data: Mapping[str, object]) -> str:
    """Emit a two-level mapping (scalars, arrays, dict sections, and
    lists of dicts as arrays-of-tables) as TOML.

    Exactly the shapes :meth:`ScenarioSpec.to_dict` produces; the output
    parses back with :mod:`tomllib` to an equal structure.
    """
    lines: List[str] = []
    sections: List[Tuple[str, Mapping]] = []
    table_arrays: List[Tuple[str, Sequence[Mapping]]] = []
    for key, value in data.items():
        if isinstance(value, Mapping):
            sections.append((key, value))
        elif (isinstance(value, (list, tuple)) and value
              and all(isinstance(v, Mapping) for v in value)):
            table_arrays.append((key, value))
        else:
            lines.append(f"{_toml_key(key)} = {_toml_scalar(value)}")
    for key, mapping in sections:
        lines.append("")
        lines.append(f"[{_toml_key(key)}]")
        for k, v in mapping.items():
            lines.append(f"{_toml_key(k)} = {_toml_scalar(v)}")
    for key, entries in table_arrays:
        for entry in entries:
            lines.append("")
            lines.append(f"[[{_toml_key(key)}]]")
            for k, v in entry.items():
                lines.append(f"{_toml_key(k)} = {_toml_scalar(v)}")
    return "\n".join(lines) + "\n"
