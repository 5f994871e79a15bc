"""Trace replay: drive experiments from a recorded arrival sequence.

Interesting instances — adversarial gadgets, ratio outliers found in
sweeps, captures from other simulators — are saved as chunked stream
files via :meth:`~repro.traffic.trace.Trace.save`.  This model replays
such a recording through the
:class:`~repro.traffic.base.TrafficModel` interface so that every
consumer of traffic models (scenarios, benchmarks, the CLI) can run on
recorded inputs exactly like on synthetic ones.

Replay preserves the recorded packet *values* (the value model of the
original instance is part of the instance): ``arrivals_for_slot``
returns ``(src, dst, value)`` triples, so both the materialized and the
streaming path carry them.  ``generate`` is a pure function of its
arguments: the same recording and ``n_slots`` always produce the same
trace, for any seed.

A recording named by path is **not** materialized at construction:
only its header is read, and :meth:`TraceReplayTraffic.arrival_source`
replays it forward at O(chunk) peak memory (``repeat=True`` re-reads
the file per period), so multi-million-packet recordings can drive
``run_*_streaming`` without ever fitting in RAM.  ``generate`` and
random-access ``arrivals_for_slot`` materialize the recording on first
use — they are the small-instance/control paths.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .base import TrafficModel
from .trace import Trace, iter_stream_slots, read_stream_header


class TraceReplayTraffic(TrafficModel):
    """Replays a recorded :class:`Trace` (from memory or a file).

    Parameters
    ----------
    source:
        A :class:`Trace` instance, or a path to a file written by
        :meth:`Trace.save` (it stays on disk until a materializing
        method needs it).
    repeat:
        If true, the recording is tiled end-to-end — with period
        ``n_slots`` of the recording, trailing idle slots included —
        to fill the requested horizon; otherwise arrivals beyond the
        recording simply stop (and arrivals past ``n_slots`` are
        truncated).
    """

    def __init__(self, source: Union[Trace, str], repeat: bool = False):
        self._path: Optional[str] = None
        self._trace: Optional[Trace] = None
        if isinstance(source, str):
            header = read_stream_header(source)
            self._path = source
            n_in, n_out = int(header["n_in"]), int(header["n_out"])
            self._src_n_slots = int(header["n_slots"])
            src_name = str(header.get("name", "trace"))
        else:
            self._trace = source
            n_in, n_out = source.n_in, source.n_out
            self._src_n_slots = source.n_slots
            src_name = source.name
        super().__init__(n_in, n_out, None, name=f"replay({src_name})")
        self.repeat = bool(repeat)

    @property
    def source(self) -> Trace:
        """The recording as an in-memory :class:`Trace` (materializes a
        file-backed recording on first access)."""
        if self._trace is None:
            self._trace = Trace.load(self._path)
        return self._trace

    def arrivals_for_slot(
        self, slot: int, rng: np.random.Generator
    ) -> List[Tuple[int, int, float]]:
        if self.repeat and self._src_n_slots > 0:
            slot = slot % self._src_n_slots
        _pid, value, arrival, src, dst = self.source.columns()
        lo = bisect_left(arrival, slot)
        hi = bisect_left(arrival, slot + 1, lo)
        return list(zip(src[lo:hi], dst[lo:hi], value[lo:hi]))

    def _iter_recorded_slots(self) -> Iterator[List[Tuple[int, int, float]]]:
        """Per-slot ``(src, dst, value)`` lists over one recording
        period, reading a file-backed recording forward from disk."""
        if self._trace is not None:
            for t in range(self._trace.n_slots):
                yield self.arrivals_for_slot(t, None)
        else:
            for _t, pkts in iter_stream_slots(self._path):
                yield [(p.src, p.dst, p.value) for p in pkts]

    def arrival_source(
        self, seed: int = 0
    ) -> Callable[[int, object], Sequence[Tuple[int, int, float]]]:
        """Forward-only streaming source over the recording.

        Peak memory is one stream chunk for file-backed recordings.
        ``repeat=True`` restarts the recording (re-reading the file)
        each period; without repeat, slots past the recording are
        empty.  The seed is ignored — replay is seed-independent.
        """
        it = self._iter_recorded_slots()
        expected = 0

        def source(t: int, switch: object) -> List[Tuple[int, int, float]]:
            nonlocal it, expected
            if t != expected:
                raise ValueError(
                    f"arrival_source must be called with consecutive slots "
                    f"(expected {expected}, got {t})"
                )
            expected += 1
            nxt = next(it, None)
            if nxt is None:
                if self.repeat and self._src_n_slots > 0:
                    it = self._iter_recorded_slots()
                    nxt = next(it, None)
                if nxt is None:
                    return []
            return nxt

        return source

    def generate(self, n_slots: int, seed: int = 0) -> Trace:
        """Replay the recording over ``n_slots`` slots (materializing).

        Unlike the stochastic models, values come from the recording
        itself, so the result is seed-independent (the seed only names
        the trace, keeping report labels uniform across models).
        Without ``repeat`` the result keeps the recording's own slot
        count (capped at ``n_slots``), trailing idle slots included.
        The trace is filled column by column from
        :meth:`arrivals_for_slot`, like every model's.
        """
        out_slots = (n_slots if self.repeat
                     else min(n_slots, self._src_n_slots))
        return self._columnar_trace(out_slots, seed,
                                    f"{self.name}/seed{seed}")
