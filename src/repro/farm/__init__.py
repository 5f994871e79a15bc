"""Experiment farm: shared result store, persistent workers, job queue.

The farm is the *service* layer over the sweep substrate:

* :class:`~repro.farm.store.ResultStore` — content-addressed, versioned,
  concurrent-writer-safe payload store (the sweep cache, shared).
* :class:`~repro.farm.pool.PersistentPool` — worker pool spawned once
  and reused across every ``run()`` call.
* :class:`~repro.farm.jobs.JobQueue` — file-based job queue behind
  ``repro submit`` / ``repro serve``.
* :mod:`~repro.farm.service` — the serve loop and job execution.

Exports resolve lazily (PEP 562): :mod:`repro.parallel` imports
:mod:`~repro.farm.store` while :mod:`~repro.farm.service` imports the
scenario runner (which imports :mod:`repro.parallel` back) — eager
re-exports here would close that cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "ResultStore": "store",
    "PersistentPool": "pool",
    "JobQueue": "jobs",
    "JOB_STATES": "jobs",
    "build_job": "service",
    "resolve_job": "service",
    "run_job": "service",
    "serve": "service",
    "farm_status": "service",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
