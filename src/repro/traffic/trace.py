"""Trace container: a concrete input sequence σ.

A :class:`Trace` is a finite arrival sequence — the σ of the competitive
framework.  It stores its packets as five columns and exposes the
per-slot arrival lists the simulation engine consumes, summary statistics
for reports, and a file format so that interesting instances (e.g.
adversarial gadgets or ratio outliers found in sweeps) can be saved and
replayed.

The columns are stdlib :class:`array.array` objects, so this module
needs no numpy: pid, arrival, src and dst as signed 64-bit integers
(``"q"``) and value as a double (``"d"``), in ``(arrival, pid)`` order,
with per-slot start offsets beside them.  :class:`~repro.switch.packet.Packet`
objects are built from the columns on first access to
:attr:`Trace.packets`, :meth:`Trace.arrivals` or
:meth:`Trace.arrival_slots` — the reference kernel, the offline optimum
and the theory replays read those — while the summary statistics, the
digest, :meth:`Trace.save` and the fast kernel read the columns and never
build one.

The file format is a chunked stream, written by :meth:`Trace.save` and
``repro trace record`` through :func:`write_stream`: a JSONL file with
one header line, then one line per fixed-width slot chunk.
:func:`iter_stream_slots` replays it at O(chunk) peak memory, so
multi-million-packet recordings never have to fit in RAM;
:meth:`Trace.load` materializes it.  Both read it through one chunk
reader, so they accept and reject the same files.

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
import sys
import tempfile
from array import array
from bisect import bisect_left
from itertools import groupby, islice
from math import inf
from operator import attrgetter, itemgetter, le, lt
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..switch.packet import Packet, sequential_sum

#: Magic ``format`` value of the chunked stream header line.
STREAM_FORMAT = "repro-trace-stream"

#: Bump when the stream schema changes (readers check this).
STREAM_VERSION = 1

#: Default arrival slots per stream chunk line.
STREAM_CHUNK_SLOTS = 4096

#: Packets per block of :meth:`Trace.content_digest`'s packing (bounds
#: its temporary buffer at 2.5 MiB).
_DIGEST_BLOCK = 1 << 16

#: ``(pid, value, arrival, src, dst)`` — one packet as a stream row.
Row = Tuple[int, float, int, int, int]

Columns = Tuple[array, array, array, array, array]


class Trace:
    """An input sequence of packets for an ``n_in x n_out`` switch.

    Parameters
    ----------
    packets:
        The arrival sequence, in any order.  It is sorted by
        ``(arrival, pid)`` and fills the trace's columns, which are
        checked as :meth:`from_columns` checks them; the sorted packets
        serve as :attr:`packets`.  Column-built traces come from
        :meth:`from_columns`.
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
        packets = sorted(packets, key=attrgetter("arrival", "pid"))
        columns = (array("q", [p.pid for p in packets]),
                   array("d", [p.value for p in packets]),
                   array("q", [p.arrival for p in packets]),
                   array("q", [p.src for p in packets]),
                   array("q", [p.dst for p in packets]))
        _check_columns(columns, int(n_in), int(n_out))
        self._adopt(columns, n_in, n_out, name, n_slots)
        self._packets = packets

    @classmethod
    def from_columns(
        cls,
        pid: array,
        value: array,
        arrival: array,
        src: array,
        dst: array,
        n_in: int,
        n_out: int,
        name: str = "trace",
        n_slots: Optional[int] = None,
    ) -> "Trace":
        """A trace over five columns, adopted without copying.

        The columns must be ``array("q")`` (pid, arrival, src, dst) and
        ``array("d")`` (value) of one length, in ``(arrival, pid)``
        order; the trace owns them from here on.  They are checked as
        the packet constructor checks packets: ports in range, values
        positive and finite, arrivals non-negative, pids unique.
        """
        columns = (pid, value, arrival, src, dst)
        for col, code in zip(columns, "qdqqq"):
            if not isinstance(col, array) or col.typecode != code:
                raise TypeError(
                    "trace columns are array('q') pid, array('d') value "
                    "and array('q') arrival, src and dst")
        _check_columns(columns, int(n_in), int(n_out))
        trace = cls.__new__(cls)
        trace._adopt(columns, n_in, n_out, name, n_slots)
        return trace

    def _adopt(self, columns: Columns, n_in: int, n_out: int, name: str,
               n_slots: Optional[int]) -> None:
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.name = name
        self._columns = columns
        arrival = columns[2]
        derived = (arrival[-1] + 1) if arrival else 0
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
        # Slot t's packets are rows _starts[t] .. _starts[t + 1] - 1.
        self._starts = array("q", [bisect_left(arrival, t)
                                   for t in range(self.n_slots + 1)])
        self._packets: Optional[List[Packet]] = None
        self._slot_tuples: Optional[Tuple[Tuple[Packet, ...], ...]] = None
        self._digest: Optional[str] = None

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns[0])

    def columns(self) -> Columns:
        """The ``(pid, value, arrival, src, dst)`` columns, in
        ``(arrival, pid)`` order.  Read-only: the trace shares them."""
        return self._columns

    @property
    def packets(self) -> List[Packet]:
        """Every packet in ``(arrival, pid)`` order, built from the
        columns on first access."""
        if self._packets is None:
            self._packets = list(map(Packet, *self._columns))
        return self._packets

    def arrivals(self, slot: int) -> Sequence[Packet]:
        """Packets arriving in ``slot`` (empty past the last arrival)."""
        if 0 <= slot < self.n_slots:
            return self.arrival_slots()[slot]
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
            packets = self.packets
            starts = self._starts
            self._slot_tuples = tuple(
                tuple(packets[starts[t]:starts[t + 1]])
                for t in range(self.n_slots))
        return self._slot_tuples

    @property
    def total_value(self) -> float:
        # Adds in packet order, as total_value(self.packets) would.
        return sequential_sum(self._columns[1])

    @property
    def is_unit_valued(self) -> bool:
        value = self._columns[1]
        return value.count(1.0) == len(value)

    def max_value(self) -> float:
        return max(self._columns[1], default=0.0)

    def min_value(self) -> float:
        return min(self._columns[1], default=0.0)

    def offered_load(self) -> float:
        """Mean arrivals per output port per slot (1.0 = line rate)."""
        if self.n_slots == 0:
            return 0.0
        return len(self) / (self.n_slots * self.n_out)

    def content_digest(self) -> str:
        """SHA-256 over the trace content, memoized after the first call.

        Hashes a fixed little-endian binary packing of the dimensions
        and the packet records, one ``<qdqqq`` record per packet in
        ``(arrival, pid)`` order; the sweep cache re-keys every trace on
        every :meth:`~repro.parallel.SweepExecutor.run` call, so the
        packing is interleaved from the columns in blocks.  Traces are
        immutable after construction, so the memo never invalidates.
        The packing is the digest's definition; changing it requires a
        ``CACHE_VERSION`` bump.
        """
        if self._digest is None:
            n = len(self)
            h = hashlib.sha256(
                struct.pack("<4q", self.n_in, self.n_out, self.n_slots, n)
            )
            for lo in range(0, n, _DIGEST_BLOCK):
                h.update(_packed_records(self._columns, lo,
                                         min(n, lo + _DIGEST_BLOCK)))
            self._digest = h.hexdigest()
        return self._digest

    # -- file format ----------------------------------------------------------

    def save(self, path: str, chunk_slots: int = STREAM_CHUNK_SLOTS) -> None:
        """Write the trace as a chunked stream file (see
        :func:`write_stream`); :func:`iter_stream_slots` replays it at
        O(chunk) peak memory and :meth:`load` round-trips it exactly."""
        starts = self._starts
        columns = self._columns
        slots = ([list(row) for row in zip(
                     *(col[starts[t]:starts[t + 1]] for col in columns))]
                 for t in range(self.n_slots))
        write_stream(path, slots, self.n_in, self.n_out, self.name,
                     chunk_slots)

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Materialize a chunked stream file into a :class:`Trace`.

        This loads every packet into RAM, as columns; memory-bounded
        consumers use :func:`iter_stream_slots` (or
        :class:`~repro.traffic.replay.TraceReplayTraffic`'s streaming
        source) instead.
        """
        header = read_stream_header(path)
        columns = (array("q"), array("d"), array("q"), array("q"),
                   array("q"))
        for _base, rows in _read_chunks(path, header):
            for col, values in zip(columns, zip(*rows)):
                col.extend(values)
        try:
            return cls.from_columns(*columns, header["n_in"],
                                    header["n_out"],
                                    name=header.get("name", "trace"),
                                    n_slots=header["n_slots"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({self.name!r}, {len(self)} packets, "
            f"{self.n_in}x{self.n_out}, {self.n_slots} slots)"
        )


def _check_columns(columns: Columns, n_in: int, n_out: int) -> None:
    """Raise ``ValueError`` unless the columns hold a valid trace in
    ``(arrival, pid)`` order (see :meth:`Trace.from_columns`)."""
    pid, value, arrival, src, dst = columns
    n = len(pid)
    if any(len(col) != n for col in columns):
        raise ValueError("trace columns differ in length")
    if not n:
        return
    for port, col, bound in (("src", src, n_in), ("dst", dst, n_out)):
        if min(col) < 0 or max(col) >= bound:
            i = next(i for i, x in enumerate(col) if not 0 <= x < bound)
            raise ValueError(f"packet {pid[i]}: {port} {col[i]} out of "
                             f"range [0,{bound})")
    # A NaN hides from min() and max() unless it comes first, but it
    # makes the sum NaN.
    total = sum(value)
    if not (min(value) > 0 and max(value) < inf and total == total):
        i = next(i for i, v in enumerate(value) if not 0 < v < inf)
        raise ValueError(f"packet {pid[i]}: value must be positive and "
                         f"finite, got {value[i]!r}")
    if arrival[0] < 0:
        raise ValueError(f"packet {pid[0]}: arrival slot must be >= 0, "
                         f"got {arrival[0]}")
    if not all(map(le, arrival, islice(arrival, 1, None))):
        raise ValueError("trace columns are not in arrival order")
    # Pids that rise throughout (every generated trace) are unique and in
    # order within each slot; anything else is checked pair by pair.
    if not all(map(lt, pid, islice(pid, 1, None))):
        seen = set()
        for p in pid:
            if p in seen:
                raise ValueError(f"duplicate packet id {p}")
            seen.add(p)
        for i in range(1, n):
            if arrival[i] == arrival[i - 1] and pid[i] < pid[i - 1]:
                raise ValueError(
                    f"trace columns are not in (arrival, pid) order at "
                    f"packet {pid[i]}")


def _packed_records(columns: Columns, lo: int, hi: int) -> array:
    """Rows ``lo .. hi - 1`` as little-endian ``<qdqqq`` records."""
    out = array("q", bytes(40 * (hi - lo)))
    for k, col in enumerate(columns):
        part = col[lo:hi]
        if part.typecode == "d":
            part = array("q", part.tobytes())  # the same eight bytes
        out[k::5] = part
    if sys.byteorder == "big":
        out.byteswap()
    return out


# --------------------------------------------------------------------------
# Stream writer and readers (module-level: no materialized Trace needed)
# --------------------------------------------------------------------------

def write_stream(path: str, slots: Iterable[List[list]], n_in: int,
                 n_out: int, name: str, chunk_slots: int) -> int:
    """Write per-slot arrivals as a chunked stream file; returns the
    packet count.

    ``slots`` yields each arrival slot's packets in order, as
    ``[pid, value, arrival, src, dst]`` rows; the number of slots it
    yields (trailing idle ones included) is the header's ``n_slots``.
    Line 1 is the header (format/version/dimensions/``n_slots``/packet
    count); each further line covers ``chunk_slots`` arrival slots
    ``[base, base + chunk_slots)`` with its rows, and empty chunks are
    not written.  The header's counts are only known after the last
    slot, so the body goes to a sibling temp file first and is then
    copied behind the header: peak memory is one chunk of packets.
    """
    if chunk_slots < 1:
        raise ValueError("chunk_slots must be >= 1")
    n_slots = n_packets = 0
    out_dir = os.path.dirname(os.path.abspath(path))
    fd, body_path = tempfile.mkstemp(dir=out_dir, suffix=".body")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as body:
            base, rows = 0, []
            for slot_rows in slots:
                rows.extend(slot_rows)
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


def _read_chunks(path: str,
                 header: Dict[str, object]) -> Iterator[Tuple[int, List[Row]]]:
    """Yield ``(base, rows)`` for every chunk line of a stream file: the
    one reader behind :func:`iter_stream_slots` and :meth:`Trace.load`.

    Rows come sorted by ``(arrival, pid)``.  A chunk must start past
    every slot an earlier chunk reached, within ``n_slots``; its rows
    must have ports in range and arrivals in ``[base, n_slots)``; and
    the chunks together must hold the header's packet count.  Values
    and pid uniqueness are checked where rows become packets or
    columns.  The file is read strictly forward, one chunk at a time.
    """
    n_in, n_out = header["n_in"], header["n_out"]
    n_slots = header["n_slots"]
    n_seen = 0
    reached = 0  # the first slot no earlier chunk covers
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()  # header
        for line in fh:
            if not line.strip():
                continue
            chunk = json.loads(line)
            base = int(chunk["base"])
            if base < reached or base >= n_slots:
                raise ValueError(
                    f"{path}: chunk base {base} overlaps an earlier chunk "
                    f"or lies out of range"
                )
            rows: List[Row] = []
            for r in chunk["packets"]:
                row = (int(r[0]), float(r[1]), int(r[2]), int(r[3]),
                       int(r[4]))
                pid, _value, arrival, src, dst = row
                if not (0 <= src < n_in and 0 <= dst < n_out):
                    raise ValueError(
                        f"{path}: packet {pid} ports out of range"
                    )
                if arrival < base:
                    raise ValueError(
                        f"{path}: packet {pid} arrival {arrival} "
                        f"before its chunk base {base}"
                    )
                if arrival >= n_slots:
                    raise ValueError(
                        f"{path}: packet {pid} arrival {arrival} "
                        f"beyond n_slots {n_slots}"
                    )
                rows.append(row)
            rows.sort(key=itemgetter(2, 0))
            n_seen += len(rows)
            reached = (rows[-1][2] if rows else base) + 1
            yield base, rows
    if n_seen != header["n_packets"]:
        raise ValueError(
            f"{path}: stream carries {n_seen} packets but the header "
            f"promises {header['n_packets']}"
        )


def iter_stream_slots(path: str) -> Iterator[Tuple[int, List[Packet]]]:
    """Yield ``(slot, packets)`` for every slot ``0 .. n_slots - 1``.

    Empty slots (including trailing idle ones) yield an empty list, so
    consuming the generator replays the exact recorded timeline.  Peak
    memory is one chunk of packets — the file is read strictly forward
    and nothing is retained across chunks.
    """
    header = read_stream_header(path)
    slot = 0
    for _base, rows in _read_chunks(path, header):
        for arrival, group in groupby(rows, key=itemgetter(2)):
            while slot < arrival:
                yield slot, []
                slot += 1
            yield slot, [Packet(*row) for row in group]
            slot += 1
    while slot < header["n_slots"]:
        yield slot, []
        slot += 1
