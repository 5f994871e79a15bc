"""File-based job queue for the experiment farm (``repro serve``).

Jobs are single JSON files moved atomically between four state
directories under one queue root::

    <root>/queue/    submitted, waiting for a server
    <root>/running/  claimed by a live server
    <root>/done/     completed (file gains a ``result`` block)
    <root>/failed/   raised (file gains an ``error`` string)

``os.rename`` within one filesystem is atomic, so any number of
``repro submit`` producers and ``repro serve`` consumers can share a
queue root without locks: a job is claimed by whoever wins the rename,
and a lost race simply moves on to the next file.  Job files are
written in full under a temp name (no ``.json`` suffix) before they
are published, so a claim never reads a partial job.  Job ids are ordered
(``job-000001-…``), so service order is deterministic FIFO.

A server that dies mid-job leaves its file in ``running/``;
:meth:`JobQueue.requeue_stale` (called by every server on startup)
moves such orphans back to ``queue/``, which — combined with the
result store's incremental sweeps — is what makes a killed study
resumable: the re-run job skips every point the dead server already
published.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from typing import Dict, List, Optional

__all__ = ["JobQueue", "JOB_STATES"]

#: Queue states, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed")

_STATE_DIRS = {"queued": "queue", "running": "running",
               "done": "done", "failed": "failed"}
_ID_RE = re.compile(r"^job-(\d+)$")


class JobQueue:
    """A shared job queue rooted at ``root`` (directories created on
    demand)."""

    def __init__(self, root: str):
        self.root = root
        for d in _STATE_DIRS.values():
            os.makedirs(os.path.join(root, d), exist_ok=True)

    def _dir(self, state: str) -> str:
        return os.path.join(self.root, _STATE_DIRS[state])

    def _path(self, state: str, job_id: str) -> str:
        return os.path.join(self._dir(state), f"{job_id}.json")

    def _write_temp(self, state: str, job: Dict[str, object]) -> str:
        """Write ``job`` to a new temp file in ``state``'s directory."""
        fd, tmp = tempfile.mkstemp(dir=self._dir(state), prefix=".job-",
                                   suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(job, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return tmp

    # -- producer ------------------------------------------------------------

    def submit(self, job: Dict[str, object]) -> str:
        """Enqueue ``job`` (a JSON-serializable dict); returns its id.

        Ids are sequential across every state directory; publishing the
        written temp file with ``os.link`` fails on a taken id, so
        concurrent submitters retry with the next number.
        """
        seq = self._next_seq()
        while True:
            job_id = f"job-{seq:06d}"
            tmp = self._write_temp("queued", {"id": job_id, **job})
            try:
                os.link(tmp, self._path("queued", job_id))
            except FileExistsError:
                seq += 1
                continue
            finally:
                os.unlink(tmp)
            return job_id

    def _next_seq(self) -> int:
        top = 0
        for state in JOB_STATES:
            try:
                names = os.listdir(self._dir(state))
            except OSError:
                continue
            for name in names:
                m = _ID_RE.match(name[: -len(".json")]
                                 if name.endswith(".json") else name)
                if m:
                    top = max(top, int(m.group(1)))
        return top + 1

    # -- consumer ------------------------------------------------------------

    def claim_next(self) -> Optional[Dict[str, object]]:
        """Atomically claim the oldest queued job (FIFO by id); returns
        the job dict or ``None`` when the queue is empty."""
        while True:
            try:
                names = sorted(os.listdir(self._dir("queued")))
            except OSError:
                return None
            names = [n for n in names if n.endswith(".json")]
            if not names:
                return None
            job_id = names[0][: -len(".json")]
            src = self._path("queued", job_id)
            dst = self._path("running", job_id)
            try:
                os.rename(src, dst)
            except OSError:
                continue  # lost the claim race; try the next file
            job = self._read(dst)
            if job is not None:
                return job

    def _read(self, path: str) -> Optional[Dict[str, object]]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                job = json.load(fh)
        except (OSError, ValueError):
            return None
        return job if isinstance(job, dict) else None

    def _finish(self, job_id: str, state: str,
                extra: Dict[str, object]) -> None:
        src = self._path("running", job_id)
        job = self._read(src) or {"id": job_id}
        job.update(extra)
        os.replace(self._write_temp(state, job), self._path(state, job_id))
        try:
            os.unlink(src)
        except OSError:
            pass

    def complete(self, job_id: str, result: Dict[str, object]) -> None:
        """Move a running job to ``done/`` with its result block."""
        self._finish(job_id, "done", {"status": "done", "result": result})

    def fail(self, job_id: str, error: str) -> None:
        """Move a running job to ``failed/`` with the error string."""
        self._finish(job_id, "failed", {"status": "failed", "error": error})

    def requeue_stale(self) -> List[str]:
        """Move every ``running/`` orphan back to ``queue/`` (server
        startup recovery); returns the requeued ids."""
        requeued: List[str] = []
        try:
            names = sorted(os.listdir(self._dir("running")))
        except OSError:
            return requeued
        for name in names:
            if not name.endswith(".json"):
                continue
            job_id = name[: -len(".json")]
            try:
                os.rename(self._path("running", job_id),
                          self._path("queued", job_id))
                requeued.append(job_id)
            except OSError:
                pass
        return requeued

    # -- introspection -------------------------------------------------------

    def depth(self) -> int:
        """Jobs currently waiting in ``queue/``."""
        return len(self.jobs("queued"))

    def jobs(self, state: str) -> List[Dict[str, object]]:
        """Every job dict in ``state``, ordered by id."""
        out: List[Dict[str, object]] = []
        try:
            names = sorted(os.listdir(self._dir(state)))
        except OSError:
            return out
        for name in names:
            if name.endswith(".json"):
                job = self._read(os.path.join(self._dir(state), name))
                if job is not None:
                    out.append(job)
        return out

    def counts(self) -> Dict[str, int]:
        """Job counts per state, in lifecycle order."""
        return {state: len(self.jobs(state)) for state in JOB_STATES}
