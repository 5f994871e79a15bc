"""Content-addressed, versioned result store: immutable packs and leases.

:class:`ResultStore` holds the payloads of executed sweep points for
:class:`~repro.parallel.SweepExecutor` and every farm component that
points at the same directory.  It works a chunk at a time: one lease
per run, one pack per executed task.

* **Content addressing** — a payload is keyed by the SHA-256 of its full
  point spec (policy, config, trace content, seed, OPT mode and the
  cache version; see :meth:`repro.parallel.SweepExecutor.cache_key`).
  Identical work always lands on the identical key, so any number of
  sweeps, scenarios, replication ladders and farm jobs share results.
* **Packs** — :meth:`put` publishes a chunk of payloads as one immutable
  file, ``<root>/packs/<name>.pack``: a header line
  ``{"cache_version": V, "keys": [...]}`` (keys sorted), then one JSON
  payload per line in header order.  The pack is written to a temp file
  and renamed into place, so a reader sees all of it or none of it.  Its
  name hashes the version and the keys, and its bytes are a function of
  them, so publishing the same chunk twice is idempotent.
* **Index** — a store reads each pack's header once and keeps
  key -> (pack, line); :meth:`get` parses payload lines only of packs
  that hold a requested key, once per pack per call.  The index holds
  keys, never payloads, so a long-lived ``repro serve`` does not grow
  with what it reads or writes.  A pack that vanished, is torn, or
  carries another version is a miss, never an exception.
* **Leases** — :meth:`claim` takes one lease over a run's misses: the
  keys that no live lease holds, written to a temp file that is
  ``flock``-ed exclusively and then renamed to
  ``<root>/leases/<id>.lease``, all under the registry lock
  ``<root>/leases.lock``.  The holder keeps the lock until every pack of
  its run is published; :meth:`release` unlinks the file, then closes
  it.  A lease whose lock can be taken is dead — released, crashed,
  ``kill -9``-ed: the kernel drops an ``flock`` with its holder, so pid
  reuse cannot keep a lease alive.  Only a process holding the registry
  lock deletes a dead lease.  A forked child closes its copies of the
  parent's lease descriptors, so a worker pool never keeps a dead
  holder's lease alive.  :meth:`wait_for` polls for keys held by live
  leases.  Because a publish always precedes its release, an executor
  that re-reads the store after its claim runs every point exactly once
  across any number of cooperating processes.
* **GC** — :meth:`gc` takes the registry lock, merges every live pack
  into one, and drops stale-version and corrupt packs, orphaned temp
  files, dead leases and the per-key ``<shard>/<key>.json`` and
  ``.claim`` files of the previous layout.

Leases need ``flock`` that works across processes: a local filesystem,
or NFS with working locks.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = ["Lease", "ResultStore"]

#: Header field stamping every pack with its cache version.
_VERSION_FIELD = "cache_version"

#: Lease descriptors this process holds.  A forked child closes its
#: copies: a pool forked while a lease is open would otherwise keep the
#: lock, and so the lease, alive after its holder died.
_HELD: Set[int] = set()


def _close_held() -> None:
    for fd in _HELD:
        try:
            os.close(fd)
        except OSError:
            pass
    _HELD.clear()


os.register_at_fork(after_in_child=_close_held)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _unlink(path: str) -> bool:
    try:
        os.unlink(path)
    except OSError:
        return False
    return True


class Lease:
    """One run's hold on the keys it executes (see
    :meth:`ResultStore.claim`); hashable by identity.

    ``keys`` are the keys this lease holds: those no other live lease
    held when it was taken.  An empty lease holds no file."""

    __slots__ = ("keys", "path", "fd")

    def __init__(self, keys: Iterable[str], path: Optional[str] = None,
                 fd: Optional[int] = None):
        self.keys = frozenset(keys)
        self.path = path
        self.fd = fd


class ResultStore:
    """A shared on-disk payload store under ``root``.

    Parameters
    ----------
    version:
        The cache schema version packs are stamped with (callers pass
        :data:`repro.parallel.CACHE_VERSION`).  Packs of any *other*
        version are misses and :meth:`gc` reclaims them — they are
        unreachable, because the version is part of every key.
    """

    def __init__(self, root: str, version: int):
        self.root = root
        self.version = int(version)
        self.packs = os.path.join(root, "packs")
        self.leases = os.path.join(root, "leases")
        #: Indexed pack name -> its keys (empty for another version).
        self._headers: Dict[str, Tuple[str, ...]] = {}
        #: Key -> (pack name, line) of a pack holding its payload.
        self._index: Dict[str, Tuple[str, int]] = {}

    # -- packs ---------------------------------------------------------------

    def _pack_path(self, name: str) -> str:
        return os.path.join(self.packs, f"{name}.pack")

    def _header(self, line: bytes) -> Optional[Tuple[str, ...]]:
        """A header line's keys; ``()`` for another version's pack,
        ``None`` for a corrupt one."""
        try:
            header = json.loads(line)
        except ValueError:
            return None
        if not isinstance(header, dict) or not isinstance(
                header.get("keys"), list):
            return None
        if header.get(_VERSION_FIELD) != self.version:
            return ()
        return tuple(header["keys"])

    def _refresh(self) -> List[str]:
        """Index the header of every pack not indexed yet; returns the
        names of the packs now on disk."""
        try:
            files = os.listdir(self.packs)
        except OSError:
            return []
        names = [f[:-5] for f in files if f.endswith(".pack")]
        for name in names:
            if name in self._headers:
                continue
            try:
                with open(self._pack_path(name), "rb") as fh:
                    keys = self._header(fh.readline())
            except OSError:
                continue  # vanished
            if keys is None:
                continue  # corrupt: a miss, looked at again next time
            self._headers[name] = keys
            for line, key in enumerate(keys, 1):
                self._index[key] = (name, line)
        return names

    def _forget(self, name: str) -> None:
        for key in self._headers.pop(name, ()):
            if self._index.get(key, (None,))[0] == name:
                del self._index[key]

    def _lines(self, name: str) -> Optional[List[bytes]]:
        """The pack's lines, or ``None`` when it vanished or is torn."""
        try:
            with open(self._pack_path(name), "rb") as fh:
                lines = fh.read().splitlines()
        except OSError:
            return None
        return lines if len(lines) == len(self._headers[name]) + 1 else None

    def get(self, keys: Sequence[str]) -> Dict[str, Dict[str, object]]:
        """The stored payloads of ``keys``, by key; a key that misses is
        absent (no pack, or its pack vanished, is torn, corrupt or of
        another version — never an exception)."""
        found: Dict[str, Dict[str, object]] = {}
        for _ in range(2):  # again once if gc merged a pack away
            self._refresh()
            wanted: Dict[str, List[Tuple[str, int]]] = {}
            for key in keys:
                loc = self._index.get(key)
                if loc is not None and key not in found:
                    wanted.setdefault(loc[0], []).append((key, loc[1]))
            lost = False
            for name, items in wanted.items():
                lines = self._lines(name)
                if lines is None:
                    self._forget(name)
                    lost = True
                    continue
                for key, line in items:
                    try:
                        payload = json.loads(lines[line])
                    except ValueError:
                        continue
                    if isinstance(payload, dict):
                        found[key] = payload
            if not lost:
                break
        return found

    def put(self, keys: Sequence[str],
            payloads: Sequence[Dict[str, object]]) -> str:
        """Publish ``payloads`` (one per key) as one immutable pack;
        returns its path.

        Safe under concurrent writers: payloads are pure functions of
        their points, so two writers of one chunk write the same bytes
        to the same name, and ``os.replace`` never shows a torn pack.
        """
        order = sorted(range(len(keys)), key=keys.__getitem__)
        lines = [json.dumps(payloads[i], separators=(",", ":"))
                 for i in order]
        os.makedirs(self.packs, exist_ok=True)
        # Temp files exist only under the registry lock (shared here),
        # so gc, which holds it exclusively, never deletes one in use.
        with self._registry(shared=True):
            return self._write_pack(tuple(keys[i] for i in order), lines)

    def _write_pack(self, keys: Tuple[str, ...], lines: List[str]) -> str:
        """Write one pack (registry lock held) and index it."""
        name = hashlib.sha256(
            "\n".join((str(self.version),) + keys).encode("utf-8")
        ).hexdigest()
        header = json.dumps({_VERSION_FIELD: self.version,
                             "keys": list(keys)}, separators=(",", ":"))
        data = "\n".join([header, *lines, ""]).encode("utf-8")
        path = self._pack_path(name)
        fd, tmp = tempfile.mkstemp(dir=self.packs, suffix=".tmp")
        try:
            _write_all(fd, data)
            os.replace(tmp, path)
        except BaseException:
            _unlink(tmp)
            raise
        finally:
            os.close(fd)
        self._headers[name] = keys
        for line, key in enumerate(keys, 1):
            self._index[key] = (name, line)
        return path

    # -- leases --------------------------------------------------------------

    @contextmanager
    def _registry(self, shared: bool = False) -> Iterator[None]:
        """Hold the registry lock: exclusive to create, reap or collect,
        shared to write a pack."""
        fd = os.open(os.path.join(self.root, "leases.lock"),
                     os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)

    def _leases(self, reap: bool = False) -> Tuple[List[List[str]], int]:
        """The key lists of live leases, and the number of dead ones.
        With ``reap`` (only under the registry lock) dead leases are
        deleted, and the number is of those deleted."""
        live: List[List[str]] = []
        dead = 0
        for name in self._listdir(self.leases):
            if not name.endswith(".lease"):
                continue  # a temp file is a lease still being made
            path = os.path.join(self.leases, name)
            try:
                fh = open(path, "rb")
            except OSError:
                continue  # released meanwhile
            with fh:
                try:
                    fcntl.flock(fh, fcntl.LOCK_SH | fcntl.LOCK_NB)
                except BlockingIOError:
                    live.append(fh.read().decode("ascii").split())
                    continue
            dead += _unlink(path) if reap else 1
        return live, dead

    def claim(self, keys: Sequence[str]) -> Lease:
        """Lease the keys of ``keys`` that no live lease holds.

        The caller executes the returned lease's keys, publishes them,
        then :meth:`release`-s it; keys left out are another live
        run's, to be awaited with :meth:`wait_for`.  Dead leases are
        reaped on the way.
        """
        os.makedirs(self.leases, exist_ok=True)
        with self._registry():
            held = {k for lease in self._leases(reap=True)[0] for k in lease}
            mine = [k for k in dict.fromkeys(keys) if k not in held]
            if not mine:
                return Lease(())
            fd, tmp = tempfile.mkstemp(dir=self.leases, suffix=".tmp")
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                _write_all(fd, "\n".join(mine).encode("ascii"))
                path = tmp[: -len(".tmp")] + ".lease"
                os.replace(tmp, path)  # complete and locked when seen
            except BaseException:
                os.close(fd)
                _unlink(tmp)
                raise
        _HELD.add(fd)
        return Lease(mine, path, fd)

    def release(self, lease: Lease) -> None:
        """Drop ``lease`` (idempotent): unlink its file, then unlock."""
        if lease.fd is None:
            return
        _unlink(lease.path)
        _HELD.discard(lease.fd)
        os.close(lease.fd)
        lease.fd = None

    def wait_for(self, keys: Sequence[str], timeout: float = 60.0,
                 poll: float = 0.02) -> Dict[str, Dict[str, object]]:
        """Wait for other runs to publish ``keys``; returns the payloads
        that arrived, by key.

        Polls until every key is published, no live lease holds a
        missing one (its holder released or died without publishing),
        or ``timeout`` elapses.  A key left out is the caller's to
        compute — payloads are pure, so a duplicated computation is
        wasteful but never wrong.
        """
        deadline = time.monotonic() + timeout
        found: Dict[str, Dict[str, object]] = {}
        while True:
            missing = tuple(k for k in keys if k not in found)
            found.update(self.get(missing))
            missing = tuple(k for k in missing if k not in found)
            if not missing:
                return found
            held = {k for lease in self._leases()[0] for k in lease}
            if held.isdisjoint(missing):
                # Check once more for a publish that raced the release.
                found.update(self.get(missing))
                return found
            if time.monotonic() >= deadline:
                return found
            time.sleep(poll)

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Live entries, live leases, and the bytes of the packs holding
        the entries."""
        names = [n for n in self._refresh() if self._headers.get(n)]
        entries: Set[str] = set()
        size = 0
        for name in names:
            entries.update(self._headers[name])
            try:
                size += os.path.getsize(self._pack_path(name))
            except OSError:
                pass
        return {"entries": len(entries), "claims": len(self._leases()[0]),
                "bytes": size}

    def gc(self) -> Dict[str, int]:
        """Compact the store; returns the files removed per bucket and
        the entries ``kept``.

        Merges every live pack into one, and removes packs stamped with
        another version or the previous layout's per-key entry and
        claim files (``stale``: unreachable, since the version is
        hashed into every key), corrupt or torn packs, orphaned temp
        files, and dead leases (``claims``).  Runs under the registry
        lock; a reader racing it sees at worst a miss.
        """
        removed = {"stale": 0, "corrupt": 0, "tmp": 0, "claims": 0,
                   "kept": 0}
        if not os.path.isdir(self.root):
            return removed

        def drop(path: str, bucket: str) -> None:
            if _unlink(path):
                removed[bucket] += 1

        with self._registry():
            removed["claims"] = self._leases(reap=True)[1]
            for name in self._listdir(self.leases):
                if name.endswith(".tmp"):
                    drop(os.path.join(self.leases, name), "tmp")
            merged: Dict[str, str] = {}
            sources: List[str] = []
            for name in self._listdir(self.packs):
                path = os.path.join(self.packs, name)
                if name.endswith(".tmp"):
                    drop(path, "tmp")
                elif name.endswith(".pack"):
                    bucket = self._collect(path, merged)
                    if bucket is None:
                        sources.append(path)
                    else:
                        drop(path, bucket)
            if len(sources) > 1:
                keys = tuple(sorted(merged))
                keep = self._write_pack(keys, [merged[k] for k in keys])
                for path in sources:
                    if path != keep:
                        _unlink(path)
            removed["kept"] = len(merged)
            for shard in self._listdir(self.root):
                path = os.path.join(self.root, shard)
                if len(shard) != 2 or not os.path.isdir(path):
                    continue
                for name in self._listdir(path):
                    if name.endswith((".json", ".claim")):
                        drop(os.path.join(path, name), "stale")
                    elif name.endswith(".tmp"):
                        drop(os.path.join(path, name), "tmp")
                try:
                    os.rmdir(path)
                except OSError:
                    pass
        self._headers.clear()
        self._index.clear()
        return removed

    @staticmethod
    def _listdir(path: str) -> List[str]:
        try:
            return sorted(os.listdir(path))
        except OSError:
            return []

    def _collect(self, path: str,
                 merged: Dict[str, str]) -> Optional[str]:
        """Add a live pack's payload lines to ``merged``; returns
        ``None`` for a live pack, else the bucket it goes to."""
        try:
            with open(path, "rb") as fh:
                lines = fh.read().splitlines()
        except OSError:
            return "corrupt"
        keys = self._header(lines[0]) if lines else None
        if keys is None:
            return "corrupt"
        if not keys:
            return "stale"
        if len(lines) != len(keys) + 1:
            return "corrupt"
        try:
            if not all(isinstance(json.loads(line), dict)
                       for line in lines[1:]):
                return "corrupt"
        except ValueError:
            return "corrupt"
        merged.update(zip(keys, (line.decode("utf-8") for line in lines[1:])))
        return None
