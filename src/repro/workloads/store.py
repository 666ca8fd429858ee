"""Content-addressed on-disk trace store.

Every figure sweep replays the same per-benchmark traces, and generating
them (synthesizing a program, then executing it) dominates small-grid wall
time.  This module makes that cost a one-time expense per machine:

* :class:`TraceStore` — a directory of ``<benchmark>__<digest>.trace``
  entries (the flat column files of :mod:`repro.workloads.io`, loaded as
  read-only views with one read) keyed by a content digest of (full
  workload profile, instruction budget, seed, format versions).  Editing
  any profile constant or bumping a format version changes the digest,
  so stale entries are never consulted — invalidation is structural, not
  manual.  Entries of older formats (``*.npz``) are listed with the rest,
  so they age out under the capacity bound instead of leaking.
* integrity — every entry embeds a sha256 checksum over all columns
  (see :func:`repro.workloads.io.load_columns`); a truncated or
  bit-flipped entry is detected, counted (``trace_store.corrupt``),
  deleted and regenerated.  A corrupt entry can cost time, never
  correctness.

The store is enabled by pointing ``REPRO_TRACE_STORE`` at a directory (or
``repro-figures --trace-store DIR``); :mod:`repro.workloads.spec2000`
layers it *under* the in-process LRU trace cache, so a process pays at
most one disk load per (benchmark, length, seed) and the fleet pays at
most one generation.  Writes go through the shared atomic tmp+rename
helper, so concurrent sweep workers warming the same entry race benignly:
last writer wins with byte-identical content, and neither removes the
other's staging file (only abandoned ones are swept; see
:func:`repro.common.atomic.abandoned_staging_files`).

Statistics (hits/misses/corrupt/writes/evictions) are kept module-wide —
:func:`store_stats` — and mirrored into obs counters (``trace_store.*``)
when profiling is enabled; each campaign worker reports its deltas in its
``campaign.worker`` run summary.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

from repro import obs
from repro.common import settings
from repro.common.errors import TraceError
from repro.common.storedir import StoreDirectory
from repro.workloads.io import FORMAT_VERSION, SUFFIX, load_columns, save_columns
from repro.workloads.synth import WorkloadProfile
from repro.workloads.trace import ColumnarTrace

#: Bumped when the store layout or digest recipe changes; part of every
#: digest, so old entries simply stop matching instead of being misread.
STORE_VERSION = 1

#: Hex digits of the digest kept in entry filenames (collision probability
#: at 24 hex chars ~ 2^-96 per pair; the full digest is not needed on disk).
DIGEST_PREFIX = 24


def trace_digest(profile: WorkloadProfile, instructions: int, seed: int) -> str:
    """Content digest of one trace: canonical JSON of everything that
    determines its bytes.

    The profile is serialized field-by-field (nested dataclasses and all),
    so *any* calibration change — a predicate-mix weight, a memory
    personality, a loop-trip mean — produces a different key.  Format
    versions ride along so serializer changes invalidate too.

    Every store load and every result key asks for a digest, so digests
    are memoized by profile value (equal profiles share one digest); an
    unhashable profile is digested afresh on each call.
    """
    try:
        return _memoized_digest(profile, int(instructions), int(seed))
    except TypeError:  # a profile dataclass that is not frozen
        return _digest(profile, int(instructions), int(seed))


@lru_cache(maxsize=4096)
def _memoized_digest(profile: WorkloadProfile, instructions: int, seed: int) -> str:
    return _digest(profile, instructions, seed)


def _digest(profile: WorkloadProfile, instructions: int, seed: int) -> str:
    payload = {
        "store_version": STORE_VERSION,
        "trace_format": FORMAT_VERSION,
        "profile": asdict(profile),
        "instructions": int(instructions),
        "seed": int(seed),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- statistics ----------------------------------------------------------------

_STAT_KEYS = ("hits", "misses", "corrupt", "writes", "evictions")
_stats = dict.fromkeys(_STAT_KEYS, 0)


def store_stats() -> dict:
    """Process-wide store statistics (across every store instance)."""
    return dict(_stats)


def reset_store_stats() -> None:
    """Zero the store statistics (tests and fresh measurement windows)."""
    for key in _STAT_KEYS:
        _stats[key] = 0


def _count(key: str, n: int = 1) -> None:
    _stats[key] += n
    if obs.enabled():
        obs.counter(f"trace_store.{key}").inc(n)
    if settings.get("REPRO_LOG") is not None:
        from repro.obs.events import emit_store  # deferred: layering

        emit_store("trace", key, n)


# -- the store -----------------------------------------------------------------


class TraceStore(StoreDirectory):
    """A directory of content-addressed, checksummed columnar trace entries.

    Safe for concurrent use by sweep workers: entries are immutable once
    written (same key => byte-identical content), writes are atomic, and a
    reader that loses a race simply regenerates.
    """

    #: Current entries, then entries of the ``.npz`` format (version 2).
    patterns = (f"*{SUFFIX}", "*.npz")
    capacity_setting = "REPRO_TRACE_STORE_CAPACITY"

    def _evicted(self) -> None:
        _count("evictions")

    def entry_path(self, profile: WorkloadProfile, instructions: int, seed: int) -> Path:
        """On-disk location of one entry (exists or not)."""
        digest = trace_digest(profile, instructions, seed)
        return self.root / f"{profile.name}__{digest[:DIGEST_PREFIX]}{SUFFIX}"

    def load(
        self, profile: WorkloadProfile, instructions: int, seed: int
    ) -> ColumnarTrace | None:
        """The stored trace, or None when absent or corrupt.

        A corrupt entry (truncation, bit flip, wrong version) is counted,
        deleted, and reported as a miss — never trusted, never fatal.
        """
        path = self.entry_path(profile, instructions, seed)
        if not path.exists():
            return None
        try:
            name, columns = load_columns(path)
            if name != profile.name:
                # A well-formed file for some *other* benchmark parked
                # under this key (copied/renamed by hand) — the internal
                # checksum is consistent, but it is not this entry.
                raise TraceError(
                    f"store entry {path} holds trace {name!r}, "
                    f"expected {profile.name!r}"
                )
        except TraceError:
            _count("corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        _count("hits")
        return ColumnarTrace(name, **columns)

    def save(
        self,
        trace: ColumnarTrace,
        profile: WorkloadProfile,
        instructions: int,
        seed: int,
    ) -> ColumnarTrace:
        """Persist ``trace`` under its content key; returns ``trace``."""
        path = self.entry_path(profile, instructions, seed)
        save_columns(path, trace.name, trace.columns())
        _count("writes")
        self._after_write()
        return trace

    def get_or_generate(
        self,
        profile: WorkloadProfile,
        instructions: int,
        seed: int,
        generate: Callable[[], ColumnarTrace],
    ) -> ColumnarTrace:
        """Load the entry, or generate + persist it on a miss."""
        loaded = self.load(profile, instructions, seed)
        if loaded is not None:
            return loaded
        _count("misses")
        return self.save(generate(), profile, instructions, seed)


# -- the process-wide active store ---------------------------------------------

_active: TraceStore | None = None


def active_store() -> TraceStore | None:
    """The store named by ``REPRO_TRACE_STORE``, or None when unset.

    Re-resolved on every call so tests (and the CLI) can point the process
    at a different directory mid-flight; the instance is reused while the
    path is stable.
    """
    global _active
    path = settings.get("REPRO_TRACE_STORE")
    if path is None:
        _active = None
        return None
    if _active is None or _active.root != Path(path):
        _active = TraceStore(path)
    return _active
