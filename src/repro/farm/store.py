"""Content-addressed, versioned result store (the sweep cache, grown up).

:class:`ResultStore` generalizes the flat per-executor JSON cache that
:class:`~repro.parallel.SweepExecutor` carried since PR 1 into a shared
substrate every farm component can point at:

* **Content addressing** — entries are keyed by the SHA-256 of the full
  point spec (policy, config, trace content, seed, OPT mode and the
  cache version; see :meth:`repro.parallel.SweepExecutor.cache_key`).
  Identical work always lands on the identical key, so any number of
  sweeps, scenarios, replication ladders and farm jobs share results.
* **Sharded layout** — entries live under two-hex-character shard
  directories (``<root>/ab/<key>.json``) so million-entry stores never
  put a million files in one directory.
* **Versioned entries + GC** — every written entry wraps its payload as
  ``{"cache_version": V, "payload": ...}``.  Because the version is
  *also* hashed into the key, bumping ``CACHE_VERSION`` makes every old
  entry miss cleanly; :meth:`ResultStore.gc` then reclaims the
  unreachable files (plus torn temp files and corrupt entries) without
  touching live ones.
* **Concurrent-writer safety** — writes go through ``mkstemp`` +
  ``os.replace`` (atomic publish: a reader sees the old entry, no
  entry, or the new entry — never a torn file), and :meth:`claim` /
  :meth:`release` / :meth:`wait_for` implement a cooperative
  exactly-once protocol: an executor only runs points whose claim file
  it created (``O_CREAT | O_EXCL``), and polls the store for points
  claimed by another *live* writer.  Claims carry the claimer's pid;
  claims held by dead processes, and claims torn by a crash before the
  pid was written, are stolen, so a killed study never wedges the
  points it was holding.

The store never deletes an entry except in :meth:`gc`, and every method
tolerates concurrent mutation of the directory tree (races surface as a
miss, never as an exception or a torn read).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Dict, Iterator, Optional

__all__ = ["ResultStore"]

#: Field stamping every stored entry with its cache version.
_VERSION_FIELD = "cache_version"

#: Seconds a claim file may go without a readable pid before it counts
#: as torn: its creator crashed between the exclusive create and the
#: pid write, so nobody will ever release it.
_TORN_CLAIM_S = 10.0


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a same-host pid."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another user
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return False
    return True


class ResultStore:
    """A shared on-disk payload store under ``root``.

    Parameters
    ----------
    version:
        The cache schema version entries are stamped with (callers pass
        :data:`repro.parallel.CACHE_VERSION`).  :meth:`gc` reclaims
        entries stamped with any *other* version — they are unreachable,
        because the version is part of every key.
    """

    def __init__(self, root: str, version: int):
        self.root = root
        self.version = int(version)

    # -- layout --------------------------------------------------------------

    def path(self, key: str) -> str:
        """Sharded entry path for ``key``."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    def claim_path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.claim")

    # -- read / write --------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The payload stored under ``key``, or ``None`` on any miss
        (absent, torn, corrupt, or unreadable — never an exception)."""
        try:
            with open(self.path(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        # A versioned entry under a key hashed from another version
        # cannot happen (the version is in the key), but be defensive:
        # a missing or mismatched stamp is a miss.
        if (not isinstance(entry, dict)
                or entry.get(_VERSION_FIELD) != self.version):
            return None
        payload = entry.get("payload")
        return payload if isinstance(payload, dict) else None

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def put(self, key: str, payload: Dict[str, object]) -> str:
        """Atomically publish ``payload`` under ``key``; returns the path.

        Safe under concurrent writers: both write the same bytes for the
        same key (payloads are pure functions of their points), and
        ``os.replace`` makes the last publish win without a torn state.
        """
        path = self.path(key)
        shard = os.path.dirname(path)
        os.makedirs(shard, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump({_VERSION_FIELD: self.version, "payload": payload},
                          fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # -- exactly-once claims -------------------------------------------------

    def claim(self, key: str) -> bool:
        """Try to become the executor of ``key``'s point.

        Returns ``True`` when this process created the claim file (it
        must eventually :meth:`put` + :meth:`release`), ``False`` when a
        *live* process already holds the claim.  Claims held by dead
        pids are stolen transparently.
        """
        path = self.claim_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        for _ in range(2):  # second pass after stealing a dead claim
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self._claimer(key) is None:
                    # Claimer is gone (crashed between claim and
                    # release); steal and retry the exclusive create.
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                    continue
                return False
            except OSError:  # pragma: no cover - unwritable store
                return True  # degrade to uncoordinated (idempotent) mode
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump({"pid": os.getpid()}, fh)
            return True
        return False

    def release(self, key: str) -> None:
        """Drop this process's claim on ``key`` (idempotent)."""
        try:
            os.unlink(self.claim_path(key))
        except OSError:
            pass

    def _claimer(self, key: str) -> Optional[int]:
        """The live pid holding ``key``'s claim, else ``None``."""
        path = self.claim_path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                pid = int(json.load(fh).get("pid", 0))
        except (OSError, ValueError):
            # No readable pid.  A just-created claim reads as held by an
            # unknown owner (-1), who writes its pid right after the
            # exclusive create; one older than _TORN_CLAIM_S is torn.
            try:
                age = time.time() - os.path.getmtime(path)
            except OSError:
                return None  # vanished
            return -1 if age < _TORN_CLAIM_S else None
        return pid if _pid_alive(pid) else None

    def wait_for(self, key: str, timeout: float = 60.0,
                 poll: float = 0.02) -> Optional[Dict[str, object]]:
        """Wait for another executor to publish ``key``.

        Polls until the payload appears, the claimer dies or releases
        without publishing, or ``timeout`` elapses.  Returns the payload
        or ``None`` (meaning: compute it yourself — payloads are pure,
        so a duplicated computation is wasteful but never wrong).
        """
        deadline = time.monotonic() + timeout
        while True:
            payload = self.get(key)
            if payload is not None:
                return payload
            claimer = self._claimer(key)
            if claimer is None:
                # Claim gone or claimer dead: check once more for a
                # publish that raced the release, then give up.
                return self.get(key)
            if time.monotonic() >= deadline:
                return None
            time.sleep(poll)

    # -- maintenance ---------------------------------------------------------

    def _shards(self) -> Iterator[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        for name in sorted(names):
            path = os.path.join(self.root, name)
            if len(name) == 2 and os.path.isdir(path):
                yield path

    def keys(self) -> Iterator[str]:
        """Every key with a (sharded) entry file, in sorted order."""
        for shard in self._shards():
            try:
                names = sorted(os.listdir(shard))
            except OSError:
                continue
            for name in names:
                if name.endswith(".json"):
                    yield name[: -len(".json")]

    def stats(self) -> Dict[str, int]:
        """Entry/claim counts and total payload bytes on disk."""
        entries = claims = total = 0
        for shard in self._shards():
            try:
                names = os.listdir(shard)
            except OSError:
                continue
            for name in names:
                path = os.path.join(shard, name)
                if name.endswith(".json"):
                    entries += 1
                    try:
                        total += os.path.getsize(path)
                    except OSError:
                        pass
                elif name.endswith(".claim"):
                    claims += 1
        return {"entries": entries, "claims": claims, "bytes": total}

    def gc(self) -> Dict[str, int]:
        """Reclaim unreachable files; returns removal counts.

        Removes: entries stamped with a ``cache_version`` other than
        this store's (unreachable — the version is hashed into every
        key), corrupt/torn entries, leftover ``*.tmp`` files, and claim
        files held by dead processes or torn before their pid was
        written.
        """
        removed = {"stale": 0, "corrupt": 0, "tmp": 0, "claims": 0, "kept": 0}

        def _unlink(path: str, bucket: str) -> None:
            try:
                os.unlink(path)
                removed[bucket] += 1
            except OSError:
                pass

        for shard in self._shards():
            try:
                names = sorted(os.listdir(shard))
            except OSError:
                continue
            for name in names:
                path = os.path.join(shard, name)
                if name.endswith(".tmp"):
                    _unlink(path, "tmp")
                    continue
                if name.endswith(".claim"):
                    key = name[: -len(".claim")]
                    if self._claimer(key) is None:
                        _unlink(path, "claims")
                    continue
                if not name.endswith(".json"):
                    continue
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        entry = json.load(fh)
                except (OSError, ValueError):
                    _unlink(path, "corrupt")
                    continue
                if (not isinstance(entry, dict)
                        or _VERSION_FIELD not in entry):
                    _unlink(path, "corrupt")
                elif entry[_VERSION_FIELD] != self.version:
                    _unlink(path, "stale")
                else:
                    removed["kept"] += 1
        return removed
