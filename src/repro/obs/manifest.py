"""Run manifests: JSON sidecars that make any figure output reproducible.

A manifest captures everything needed to regenerate (and trust) one
``results/*.txt``: the resolved experiment configuration (scale,
benchmarks, engine, warmup), the environment (python/numpy versions, git
sha), per-phase wall times (from ``span.*`` timers), the full metrics
snapshot, and a digest of the rendered output.  ``repro-figures
--output-dir``/``--profile`` writes one per target; ``repro-stats`` renders
and diffs them.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time

from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import default_registry, last_trace_id

#: Bumped when the manifest layout changes incompatibly.
MANIFEST_VERSION = 1

#: Manifest sections compared key-by-key in :func:`diff_manifests`.
_DIFF_SECTIONS = ("config", "environment", "output")


def _git_sha() -> str | None:
    """Best-effort commit sha of the source tree (None outside a checkout)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment_info() -> dict:
    """Versions and platform facts recorded in every manifest."""
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "argv": " ".join(sys.argv),
        "git_sha": _git_sha(),
    }


def output_digest(text: str) -> dict:
    """Digest + size of a rendered figure, for byte-identity checks."""
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _phases(snapshot: dict) -> dict:
    """Per-phase timings: every ``span.<name>`` timer, keyed by phase name."""
    return {
        name[len("span.") :]: info
        for name, info in (snapshot.get("timers") or {}).items()
        if name.startswith("span.")
    }


def build_manifest(
    target: str,
    output_text: str,
    duration_seconds: float,
    registry: MetricsRegistry | None = None,
    config: dict | None = None,
) -> dict:
    """Assemble the manifest dict for one figure/sweep run."""
    if config is None:
        from repro.harness.scale import resolved_config  # deferred: layering

        config = resolved_config()
    snapshot = (registry or default_registry()).snapshot()
    return {
        "manifest_version": MANIFEST_VERSION,
        "target": target,
        "created_unix": time.time(),
        # Joins the manifest to the run's span tree in the event log
        # (volatile: not diffed).
        "trace_id": last_trace_id(),
        "duration_seconds": duration_seconds,
        "config": config,
        "environment": environment_info(),
        "output": output_digest(output_text),
        "phases": _phases(snapshot),
        "metrics": snapshot,
    }


def manifest_path_for(output_path: str) -> str:
    """Sidecar path for a figure output: ``x.txt`` -> ``x.manifest.json``."""
    stem, _ = os.path.splitext(output_path)
    return f"{stem}.manifest.json"


def write_manifest(manifest: dict, path: str) -> str:
    """Write ``manifest`` as pretty JSON; returns ``path``."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_manifest(path: str) -> dict:
    """Read a manifest written by :func:`write_manifest`."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def diff_manifests(a: dict, b: dict) -> list[dict]:
    """Field-by-field differences between two manifests.

    Returns rows of ``{"section", "key", "a", "b"}`` covering config,
    environment and output digests, plus phase-timing and counter deltas.
    Volatile fields (timestamps, durations, argv) are not compared.
    """
    rows: list[dict] = []
    for section in _DIFF_SECTIONS:
        left, right = a.get(section) or {}, b.get(section) or {}
        for key in sorted(set(left) | set(right)):
            if key == "argv":
                continue
            if left.get(key) != right.get(key):
                rows.append(
                    {
                        "section": section,
                        "key": key,
                        "a": left.get(key),
                        "b": right.get(key),
                    }
                )
    phases_a, phases_b = a.get("phases") or {}, b.get("phases") or {}
    for name in sorted(set(phases_a) | set(phases_b)):
        total_a = (phases_a.get(name) or {}).get("total_seconds")
        total_b = (phases_b.get(name) or {}).get("total_seconds")
        if total_a != total_b:
            rows.append(
                {
                    "section": "phases",
                    "key": name,
                    "a": None if total_a is None else f"{total_a:.3f}s",
                    "b": None if total_b is None else f"{total_b:.3f}s",
                }
            )
    counters_a = (a.get("metrics") or {}).get("counters") or {}
    counters_b = (b.get("metrics") or {}).get("counters") or {}
    for name in sorted(set(counters_a) | set(counters_b)):
        if counters_a.get(name) != counters_b.get(name):
            rows.append(
                {
                    "section": "counters",
                    "key": name,
                    "a": counters_a.get(name),
                    "b": counters_b.get(name),
                }
            )
    return rows
