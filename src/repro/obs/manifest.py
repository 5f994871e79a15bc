"""Run provenance manifests.

Every ``results/<name>/`` artifact directory gets a ``manifest.json``
tying the artifact to the code version, scenario spec hash, seeds and
OPT mode that produced it, plus a coarse environment fingerprint.  The
manifest is **deterministic on one machine**: it never records worker
counts, wall times, hostnames, or timestamps, so the serial-vs-parallel
``diff -r`` byte-identity checks in CI hold with the manifest present.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

#: Schema version of ``manifest.json``; bump when fields change.
#: v2: ``opt_window`` is gone with windowed OPT.
#: v3: ``backend`` is gone: the engine picks the kernel, and the kernels
#: are bit-identical, so no run has a backend to record.
MANIFEST_VERSION = 3


def spec_hash(payload: object) -> str:
    """sha256 over the canonical JSON form of a serializable payload
    (a ``ScenarioSpec.to_dict()``, a sweep description, ...)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _environment() -> Dict[str, object]:
    """Coarse, deterministic-per-machine environment fingerprint."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "numpy": numpy_version,
    }


def build_manifest(
    *,
    kind: str,
    name: str,
    spec: Optional[object] = None,
    seeds: Sequence[int] = (),
    opt_mode: str = "exact",
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble a manifest dict.

    ``kind`` names the producing surface (``"scenario"``,
    ``"replication"``, ``"sweep"``, ``"replay"``); ``spec`` is any
    JSON-serializable description of the workload, hashed into
    ``spec_sha256``.  No timestamps and no worker counts by design —
    see the module docstring.
    """
    from repro._version import __version__

    manifest: Dict[str, object] = {
        "manifest_version": MANIFEST_VERSION,
        "repro_version": __version__,
        "kind": kind,
        "name": name,
        "spec_sha256": spec_hash(spec) if spec is not None else None,
        "seeds": sorted(set(int(s) for s in seeds)),
        "opt_mode": opt_mode,
        "environment": _environment(),
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(directory: Path, manifest: Dict[str, object]) -> Path:
    """Write ``manifest.json`` into ``directory`` in canonical form
    (sorted keys, 2-space indent, trailing newline — the same convention
    as every other committed JSON artifact)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "manifest.json"
    text = json.dumps(manifest, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    path.write_text(text, encoding="utf-8")
    return path


def read_manifest(directory: Path) -> Dict[str, object]:
    """Load ``manifest.json`` from an artifact directory."""
    path = Path(directory) / "manifest.json"
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
