"""Content-addressed on-disk trace store with a columnar in-memory backing.

Every figure sweep replays the same per-benchmark traces, and generating
them (synthesizing a program, then executing it block-by-block through
Python objects) dominates small-grid wall time.  This module makes that
cost a one-time expense per machine:

* :class:`ColumnarTrace` — a trace held as structure-of-arrays numpy
  columns (the exact columns :mod:`repro.workloads.io` serializes).  It is
  duck-type compatible with :class:`repro.workloads.trace.Trace` for every
  harness consumer: ``conditional_branches()`` / ``branch_arrays()`` feed
  the scalar and batch accuracy engines, and ``columns()`` the cycle
  simulator, straight off the arrays; a ``blocks`` view materializes
  lazily, only for a consumer that iterates ``Block`` objects.
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
import os
from collections.abc import Callable
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro import obs
from repro.common.errors import ConfigurationError, TraceError
from repro.common.storedir import StoreDirectory
from repro.workloads.io import (
    FORMAT_VERSION,
    SUFFIX,
    blocks_from_columns,
    load_columns,
    save_columns,
    trace_to_columns,
)
from repro.workloads.synth import WorkloadProfile
from repro.workloads.trace import Block, BranchKind, Trace

#: Bumped when the store layout or digest recipe changes; part of every
#: digest, so old entries simply stop matching instead of being misread.
STORE_VERSION = 1

#: Default maximum entries per store directory (LRU by file mtime).
DEFAULT_STORE_CAPACITY = 512

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
    if obs.log_path() is not None:
        from repro.obs.events import emit_store  # deferred: layering

        emit_store("trace", key, n)


# -- columnar trace ------------------------------------------------------------


class ColumnarTrace:
    """A replayable trace held as numpy columns instead of ``Block`` objects.

    Construction is cheap (arrays are adopted, not copied); neither the
    accuracy paths nor the cycle simulator touch Python block objects, and
    the ``blocks`` view exists only for consumers that genuinely need it.
    A trace loaded from the store holds read-only views of the entry's
    bytes, so no consumer can change a trace the LRU cache shares.
    """

    def __init__(
        self,
        name: str,
        pc: np.ndarray,
        instructions: np.ndarray,
        branch_kind: np.ndarray,
        branch_pc: np.ndarray,
        taken: np.ndarray,
        target: np.ndarray,
        loads: np.ndarray,
        stores: np.ndarray,
        load_offsets: np.ndarray,
        store_offsets: np.ndarray,
    ) -> None:
        self.name = name
        self.pc = np.asarray(pc, dtype=np.int64)
        self.instructions = np.asarray(instructions, dtype=np.int32)
        self.branch_kind = np.asarray(branch_kind, dtype=np.int8)
        self.branch_pc = np.asarray(branch_pc, dtype=np.int64)
        self.taken = np.asarray(taken, dtype=bool)
        self.target = np.asarray(target, dtype=np.int64)
        self.loads = np.asarray(loads, dtype=np.int64)
        self.stores = np.asarray(stores, dtype=np.int64)
        self.load_offsets = np.asarray(load_offsets, dtype=np.int64)
        self.store_offsets = np.asarray(store_offsets, dtype=np.int64)
        self._branches: tuple[np.ndarray, np.ndarray] | None = None
        self._blocks: list[Block] | None = None

    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Columnarize a block-object trace."""
        return cls(trace.name, **trace_to_columns(trace))

    def columns(self) -> dict[str, np.ndarray]:
        """The serializable column set (see :data:`repro.workloads.io.COLUMN_ORDER`)."""
        return {
            "pc": self.pc,
            "instructions": self.instructions,
            "branch_kind": self.branch_kind,
            "branch_pc": self.branch_pc,
            "taken": self.taken,
            "target": self.target,
            "loads": self.loads,
            "stores": self.stores,
            "load_offsets": self.load_offsets,
            "store_offsets": self.store_offsets,
        }

    # -- Trace-compatible surface ---------------------------------------------

    def __len__(self) -> int:
        return len(self.pc)

    def __iter__(self):
        return iter(self.blocks)

    @property
    def blocks(self) -> list[Block]:
        """Lazily-materialized ``Block`` view (for consumers that iterate
        blocks; the cycle simulator reads :meth:`columns`)."""
        if self._blocks is None:
            self._blocks = blocks_from_columns(self.columns())
        return self._blocks

    @property
    def instruction_count(self) -> int:
        """Total dynamic instructions in the trace."""
        return int(self.instructions.sum())

    def branch_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The conditional-branch stream as ``(pcs, takens)`` arrays —
        exactly what the batch engine consumes, one mask away from the
        stored columns."""
        if self._branches is None:
            conditional = self.branch_kind == int(BranchKind.CONDITIONAL)
            self._branches = (
                np.ascontiguousarray(self.branch_pc[conditional]),
                np.ascontiguousarray(self.taken[conditional]),
            )
        return self._branches

    @property
    def conditional_branch_count(self) -> int:
        """Total dynamic conditional branches in the trace."""
        return len(self.branch_arrays()[0])

    @property
    def taken_rate(self) -> float:
        """Fraction of conditional branches that are taken."""
        pcs, takens = self.branch_arrays()
        if len(pcs) == 0:
            return 0.0
        return int(np.count_nonzero(takens)) / len(pcs)

    def conditional_branches(self):
        """Yield (branch_pc, taken) per conditional branch, as Python
        scalars — bit-compatible with the ``Block`` iteration path."""
        pcs, takens = self.branch_arrays()
        yield from zip(pcs.tolist(), takens.tolist())

    def static_branch_count(self) -> int:
        """Number of distinct conditional-branch sites in the trace."""
        return int(np.unique(self.branch_arrays()[0]).size)

    def validate(self) -> None:
        """Control-flow continuity check (vectorized twin of
        :meth:`repro.workloads.trace.Trace.validate`)."""
        if len(self.pc) < 2:
            return
        branchy = (self.branch_kind[:-1] != int(BranchKind.NONE)) & self.taken[:-1]
        expected = self.target[:-1][branchy]
        actual = self.pc[1:][branchy]
        bad = np.flatnonzero(expected != actual)
        if bad.size:
            i = int(np.flatnonzero(branchy)[bad[0]])
            raise TraceError(
                f"discontinuity: taken branch at {int(self.branch_pc[i]):#x} "
                f"targets {int(self.target[i]):#x} but next block is "
                f"{int(self.pc[i + 1]):#x}"
            )

    def to_trace(self) -> Trace:
        """Materialize a full block-object :class:`Trace`."""
        return Trace(name=self.name, blocks=list(self.blocks))


# -- the store -----------------------------------------------------------------


def store_path() -> str | None:
    """The configured store directory (``REPRO_TRACE_STORE``), or None."""
    raw = os.environ.get("REPRO_TRACE_STORE", "").strip()
    return raw or None


def store_capacity() -> int:
    """Maximum entries per store: ``REPRO_TRACE_STORE_CAPACITY`` or default."""
    raw = os.environ.get("REPRO_TRACE_STORE_CAPACITY")
    if raw is None or not raw.strip():
        return DEFAULT_STORE_CAPACITY
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_TRACE_STORE_CAPACITY must be an integer >= 1, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigurationError(
            f"REPRO_TRACE_STORE_CAPACITY must be >= 1, got {value}"
        )
    return value


class TraceStore(StoreDirectory):
    """A directory of content-addressed, checksummed columnar trace entries.

    Safe for concurrent use by sweep workers: entries are immutable once
    written (same key => byte-identical content), writes are atomic, and a
    reader that loses a race simply regenerates.
    """

    #: Current entries, then entries of the ``.npz`` format (version 2).
    patterns = (f"*{SUFFIX}", "*.npz")

    def _default_capacity(self) -> int:
        return store_capacity()

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
        trace: Trace | ColumnarTrace,
        profile: WorkloadProfile,
        instructions: int,
        seed: int,
    ) -> ColumnarTrace:
        """Persist ``trace`` under its content key; returns the columnar form."""
        columnar = (
            trace if isinstance(trace, ColumnarTrace) else ColumnarTrace.from_trace(trace)
        )
        path = self.entry_path(profile, instructions, seed)
        save_columns(path, columnar.name, columnar.columns())
        _count("writes")
        self._after_write()
        return columnar

    def get_or_generate(
        self,
        profile: WorkloadProfile,
        instructions: int,
        seed: int,
        generate: Callable[[], Trace],
    ) -> ColumnarTrace:
        """Load the entry, or generate + persist it on a miss.

        Both paths return a :class:`ColumnarTrace`, so cold and warm runs
        replay the very same representation (byte-identical figures).
        """
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
    path = store_path()
    if path is None:
        _active = None
        return None
    if _active is None or _active.root != Path(path):
        _active = TraceStore(path)
    return _active
