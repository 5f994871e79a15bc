"""Trace replay: drive experiments from a recorded arrival sequence.

Interesting instances — adversarial gadgets, ratio outliers found in
sweeps, captures from other simulators — are saved as chunked stream
files via :meth:`~repro.traffic.trace.Trace.save`.  This model replays
such a recording through the
:class:`~repro.traffic.base.TrafficModel` interface so that every
consumer of traffic models (scenarios, benchmarks, the CLI) can run on
recorded inputs exactly like on synthetic ones.

Replay preserves the recorded packet *values* (the value model of the
original instance is part of the instance): its draw loop,
:meth:`TraceReplayTraffic.slot_arrivals`, yields the recording's own
``(srcs, dsts, values)`` columns slot by slot, so ``generate``,
``arrival_source`` and ``repro trace record`` all carry them.  The
result is a pure function of the recording: the same recording and
``n_slots`` always produce the same trace, for any seed.

A recording named by path is **not** materialized at construction:
only its header is read, and the draw loop reads the file forward at
O(chunk) peak memory (``repeat=True`` re-reads it per period), so
multi-million-packet recordings can drive ``run_*_streaming`` through
``arrival_source`` without ever fitting in RAM.  ``generate`` loads
the file once and keeps it, so a scenario replaying it over several
seeds parses it once.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from typing import Iterator, Optional, Union

from .base import SlotColumns, TrafficModel
from .trace import Trace, iter_stream_slots, read_stream_header


class TraceReplayTraffic(TrafficModel):
    """Replays a recorded :class:`Trace` (from memory or a file).

    Parameters
    ----------
    source:
        A :class:`Trace` instance, or a path to a file written by
        :meth:`Trace.save` (it stays on disk until ``generate`` needs
        it).
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

    def slot_arrivals(self, seed: int) -> Iterator[SlotColumns]:
        """The recording's ``(srcs, dsts, values)`` per slot, read
        forward: one period, tiled while ``repeat`` is set and the
        recording has slots, then empty slots without end.

        A file-backed recording that ``generate`` has not loaded is
        read through :func:`iter_stream_slots`, one chunk at a time and
        again per period.  The seed is ignored: replay is
        seed-independent.
        """
        while True:
            if self._trace is None:
                for _t, packets in iter_stream_slots(self._path):
                    yield ([p.src for p in packets],
                           [p.dst for p in packets],
                           [p.value for p in packets])
            else:
                _pid, value, arrival, src, dst = self._trace.columns()
                lo = 0
                for t in range(self._src_n_slots):
                    hi = bisect_left(arrival, t + 1, lo)
                    yield src[lo:hi], dst[lo:hi], value[lo:hi]
                    lo = hi
            if not (self.repeat and self._src_n_slots):
                break
        yield from repeat(((), (), ()))

    def generate(self, n_slots: int, seed: int = 0) -> Trace:
        """Replay the recording over ``n_slots`` slots (materializing).

        Unlike the stochastic models, values come from the recording
        itself, so the result is seed-independent (the seed only names
        the trace, keeping report labels uniform across models).
        Without ``repeat`` the result keeps the recording's own slot
        count (capped at ``n_slots``), trailing idle slots included.
        A file-backed recording is loaded on the first call and kept.
        The trace is filled column by column from
        :meth:`slot_arrivals`, like every model's.
        """
        if self._trace is None:
            self._trace = Trace.load(self._path)
        out_slots = (n_slots if self.repeat
                     else min(n_slots, self._src_n_slots))
        return self._columnar_trace(out_slots, seed,
                                    f"{self.name}/seed{seed}")
