"""Trace container: a concrete input sequence σ.

A :class:`Trace` is a finite arrival sequence — the σ of the competitive
framework.  It stores every packet with its arrival slot and exposes the
per-slot arrival lists the simulation engine consumes, summary statistics
for reports, and a file format so that interesting instances (e.g.
adversarial gadgets or ratio outliers found in sweeps) can be saved and
replayed.

The file format is a chunked stream, written by :meth:`Trace.save` and
``repro trace record`` through :func:`write_stream`: a JSONL file with
one header line, then one line per fixed-width slot chunk.
:func:`iter_stream_slots` replays it at O(chunk) peak memory, so
multi-million-packet recordings never have to fit in RAM;
:meth:`Trace.load` materializes it.

A trace's slot count is part of the instance: a recording that ends
with intended idle time (drain slots) keeps it through ``n_slots``,
which the stream header persists and
:class:`~repro.traffic.replay.TraceReplayTraffic` tiling respects.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
import tempfile
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..switch.packet import Packet, total_value, validate_packets

#: Magic ``format`` value of the chunked stream header line.
STREAM_FORMAT = "repro-trace-stream"

#: Bump when the stream schema changes (readers check this).
STREAM_VERSION = 1

#: Default arrival slots per stream chunk line.
STREAM_CHUNK_SLOTS = 4096


class Trace:
    """An input sequence of packets for an ``n_in x n_out`` switch.

    Parameters
    ----------
    packets:
        The arrival sequence (validated, sorted by ``(arrival, pid)``).
    n_in, n_out:
        Switch dimensions.
    name:
        Display name, propagated into result reports.
    n_slots:
        Explicit arrival-slot count.  Defaults to ``last arrival + 1``
        (0 for an empty trace), but a recording that ends with intended
        idle slots must say so — otherwise replay tiling would
        silently drop the trailing idle time.  Must be at least the
        derived value.
    """

    def __init__(
        self,
        packets: Iterable[Packet],
        n_in: int,
        n_out: int,
        name: str = "trace",
        n_slots: Optional[int] = None,
    ):
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.name = name
        self.packets: List[Packet] = validate_packets(packets, self.n_in, self.n_out)
        derived = (self.packets[-1].arrival + 1) if self.packets else 0
        if n_slots is None:
            self.n_slots = derived
        else:
            n_slots = int(n_slots)
            if n_slots < derived:
                raise ValueError(
                    f"n_slots={n_slots} is smaller than the last arrival "
                    f"slot + 1 ({derived})"
                )
            self.n_slots = n_slots
        self._by_slot: List[List[Packet]] = [[] for _ in range(self.n_slots)]
        for p in self.packets:
            self._by_slot[p.arrival].append(p)
        self._slot_tuples: Optional[Tuple[Tuple[Packet, ...], ...]] = None
        self._digest: Optional[str] = None

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.packets)

    def arrivals(self, slot: int) -> Sequence[Packet]:
        """Packets arriving in ``slot`` (empty past the last arrival)."""
        if 0 <= slot < len(self._by_slot):
            return self._by_slot[slot]
        return ()

    def arrival_slots(self) -> Tuple[Tuple[Packet, ...], ...]:
        """Per-slot arrival arrays, precomputed once per trace.

        ``arrival_slots()[t]`` is the (possibly empty) tuple of packets
        arriving in slot ``t`` for ``t in range(n_slots)``.  The
        simulation kernel indexes this directly in its slot loop instead
        of paying a bounds-checked :meth:`arrivals` call per slot; the
        tuples are built lazily on first use and cached.
        """
        if self._slot_tuples is None:
            self._slot_tuples = tuple(tuple(s) for s in self._by_slot)
        return self._slot_tuples

    @property
    def total_value(self) -> float:
        return total_value(self.packets)

    @property
    def is_unit_valued(self) -> bool:
        return all(p.value == 1.0 for p in self.packets)

    def max_value(self) -> float:
        return max((p.value for p in self.packets), default=0.0)

    def min_value(self) -> float:
        return min((p.value for p in self.packets), default=0.0)

    def offered_load(self) -> float:
        """Mean arrivals per output port per slot (1.0 = line rate)."""
        if self.n_slots == 0:
            return 0.0
        return len(self.packets) / (self.n_slots * self.n_out)

    def content_digest(self) -> str:
        """SHA-256 over the trace content, memoized after the first call.

        Hashes a fixed little-endian binary packing of the dimensions
        and the packet records; the sweep cache re-keys every trace on
        every :meth:`~repro.parallel.SweepExecutor.run` call, so the
        packing is kept cheap.  Traces are immutable after
        construction, so the memo never invalidates.  The packing is
        the digest's definition; changing it requires a
        ``CACHE_VERSION`` bump.
        """
        if self._digest is None:
            h = hashlib.sha256(
                struct.pack("<4q", self.n_in, self.n_out, self.n_slots,
                            len(self.packets))
            )
            pack = struct.Struct("<qdqqq").pack
            for p in self.packets:
                h.update(pack(p.pid, p.value, p.arrival, p.src, p.dst))
            self._digest = h.hexdigest()
        return self._digest

    # -- file format ----------------------------------------------------------

    def save(self, path: str, chunk_slots: int = STREAM_CHUNK_SLOTS) -> None:
        """Write the trace as a chunked stream file (see
        :func:`write_stream`); :func:`iter_stream_slots` replays it at
        O(chunk) peak memory and :meth:`load` round-trips it exactly."""
        write_stream(path, self._by_slot, self.n_in, self.n_out, self.name,
                     chunk_slots)

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Materialize a chunked stream file into a :class:`Trace`.

        This loads every packet into RAM; memory-bounded consumers use
        :func:`iter_stream_slots` (or
        :class:`~repro.traffic.replay.TraceReplayTraffic`'s streaming
        source) instead.
        """
        header = read_stream_header(path)
        packets: List[Packet] = []
        for _slot, arrivals in iter_stream_slots(path):
            packets.extend(arrivals)
        return cls(packets, header["n_in"], header["n_out"],
                   name=header.get("name", "trace"),
                   n_slots=header["n_slots"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({self.name!r}, {len(self.packets)} packets, "
            f"{self.n_in}x{self.n_out}, {self.n_slots} slots)"
        )


# --------------------------------------------------------------------------
# Stream writer and readers (module-level: no materialized Trace needed)
# --------------------------------------------------------------------------

def write_stream(path: str, slots: Iterable[Iterable[Packet]], n_in: int,
                 n_out: int, name: str, chunk_slots: int) -> int:
    """Write per-slot arrivals as a chunked stream file; returns the
    packet count.

    ``slots`` yields each arrival slot's packets in order; the number of
    slots it yields (trailing idle ones included) is the header's
    ``n_slots``.  Line 1 is the header (format/version/dimensions/
    ``n_slots``/packet count); each further line covers ``chunk_slots``
    arrival slots ``[base, base + chunk_slots)`` with its packets as
    ``[pid, value, arrival, src, dst]`` rows, and empty chunks are not
    written.  The header's counts are only known after the last slot,
    so the body goes to a sibling temp file first and is then copied
    behind the header: peak memory is one chunk of packets.
    """
    if chunk_slots < 1:
        raise ValueError("chunk_slots must be >= 1")
    n_slots = n_packets = 0
    out_dir = os.path.dirname(os.path.abspath(path))
    fd, body_path = tempfile.mkstemp(dir=out_dir, suffix=".body")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as body:
            base, rows = 0, []
            for arrivals in slots:
                rows.extend([p.pid, p.value, p.arrival, p.src, p.dst]
                            for p in arrivals)
                n_slots += 1
                if n_slots - base == chunk_slots:
                    n_packets += _write_chunk(body, base, rows)
                    base, rows = n_slots, []
            n_packets += _write_chunk(body, base, rows)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({
                "format": STREAM_FORMAT,
                "version": STREAM_VERSION,
                "name": name,
                "n_in": n_in,
                "n_out": n_out,
                "n_slots": n_slots,
                "n_packets": n_packets,
                "chunk_slots": int(chunk_slots),
            }))
            out.write("\n")
            with open(body_path, "r", encoding="utf-8") as body:
                shutil.copyfileobj(body, out, 1 << 20)
    finally:
        os.unlink(body_path)
    return n_packets


def _write_chunk(fh, base: int, rows: List[list]) -> int:
    """Write one non-empty chunk line; returns its packet count."""
    if rows:
        fh.write(json.dumps({"base": base, "packets": rows}))
        fh.write("\n")
    return len(rows)


def read_stream_header(path: str) -> Dict[str, object]:
    """Parse and validate the header line of a chunked stream file."""
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline()
    try:
        header = json.loads(line)
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("format") != STREAM_FORMAT:
        raise ValueError(f"{path}: not a {STREAM_FORMAT} file")
    if header.get("version") != STREAM_VERSION:
        raise ValueError(
            f"{path}: unsupported stream version {header.get('version')!r} "
            f"(this build reads version {STREAM_VERSION})"
        )
    for key in ("n_in", "n_out", "n_slots", "n_packets"):
        if not isinstance(header.get(key), int) or header[key] < 0:
            raise ValueError(f"{path}: bad stream header field {key!r}")
    return header


def iter_stream_slots(path: str) -> Iterator[Tuple[int, List[Packet]]]:
    """Yield ``(slot, packets)`` for every slot ``0 .. n_slots - 1``.

    Empty slots (including trailing idle ones) yield an empty list, so
    consuming the generator replays the exact recorded timeline.  Peak
    memory is one chunk of packets — the file is read strictly forward
    and nothing is retained across chunks.
    """
    header = read_stream_header(path)
    n_in, n_out = header["n_in"], header["n_out"]
    n_slots = header["n_slots"]
    n_seen = 0
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()  # header
        slot = 0
        prev_base = -1
        for line in fh:
            if not line.strip():
                continue
            chunk = json.loads(line)
            base = int(chunk["base"])
            if base <= prev_base or base >= n_slots:
                raise ValueError(
                    f"{path}: chunk base {base} out of order or range"
                )
            prev_base = base
            while slot < base:
                yield slot, []
                slot += 1
            by_slot: Dict[int, List[Packet]] = {}
            for r in chunk["packets"]:
                p = Packet(pid=int(r[0]), value=float(r[1]),
                           arrival=int(r[2]), src=int(r[3]), dst=int(r[4]))
                if not (0 <= p.src < n_in and 0 <= p.dst < n_out):
                    raise ValueError(
                        f"{path}: packet {p.pid} ports out of range"
                    )
                if p.arrival < base:
                    raise ValueError(
                        f"{path}: packet {p.pid} arrival {p.arrival} "
                        f"before its chunk base {base}"
                    )
                if p.arrival >= n_slots:
                    raise ValueError(
                        f"{path}: packet {p.pid} arrival {p.arrival} "
                        f"beyond n_slots {n_slots}"
                    )
                by_slot.setdefault(p.arrival, []).append(p)
                n_seen += 1
            for t in sorted(by_slot):
                while slot < t:
                    yield slot, []
                    slot += 1
                arrivals = by_slot[t]
                arrivals.sort(key=lambda p: p.pid)
                yield slot, arrivals
                slot += 1
        while slot < n_slots:
            yield slot, []
            slot += 1
    if n_seen != header["n_packets"]:
        raise ValueError(
            f"{path}: stream carries {n_seen} packets but the header "
            f"promises {header['n_packets']}"
        )
