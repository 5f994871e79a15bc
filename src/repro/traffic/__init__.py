"""Traffic substrate: traces, value models and arrival generators.

Names resolve lazily (PEP 562): :class:`~repro.traffic.trace.Trace` and
its chunked stream file format (``Trace.save``/``Trace.load``,
``read_stream_header``, ``iter_stream_slots``) are pure Python and the
reference simulation kernel depends on them, so this package must
import without numpy — the generators (which do need numpy's bit-exact
PCG64 streams) only load when first touched.
"""

from importlib import import_module

_EXPORTS = {
    "Trace": ".trace",
    "iter_stream_slots": ".trace",
    "read_stream_header": ".trace",
    "ValueModel": ".values",
    "exponential_values": ".values",
    "geometric_class_values": ".values",
    "pareto_values": ".values",
    "two_value": ".values",
    "uniform_values": ".values",
    "unit_values": ".values",
    "TrafficModel": ".base",
    "BernoulliTraffic": ".bernoulli",
    "BurstyTraffic": ".bursty",
    "DiagonalTraffic": ".hotspot",
    "HotspotTraffic": ".hotspot",
    "MarkovModulatedTraffic": ".markov",
    "ParetoBurstTraffic": ".paretoburst",
    "ApplicationMixTraffic": ".appmix",
    "TraceReplayTraffic": ".replay",
    "AdaptiveAdversary": ".adversarial",
    "FullQueuePressureAdversary": ".adversarial",
    "PreemptionBaitAdversary": ".adversarial",
    "RotatingBurstAdversary": ".adversarial",
    "SingleOutputOverloadAdversary": ".adversarial",
    "beta_admission_gadget": ".adversarial",
    "burst_reject_gadget": ".adversarial",
    "escalating_values_gadget": ".adversarial",
    "generate_adaptive_trace": ".adversarial",
    "two_value_contention_gadget": ".adversarial",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
