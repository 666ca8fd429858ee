"""Content-addressed on-disk store for per-cell sweep results.

The trace store (:mod:`repro.workloads.store`) made *traces* cheap,
addressable artifacts; this module applies the identical architecture one
level up, to the sweep **results** themselves.  Every (benchmark, family,
budget[, mode][, variant]) cell a figure sweep computes is memoized on disk under a
content key, so regenerating any figure after an unrelated change — or
assembling a derived table from an already-computed grid — performs zero
predictor work: no trace generation, no predictor construction, no
predictions.

* :func:`cell_key_payload` (with :func:`accuracy_key_payload` /
  :func:`ipc_key_payload`) — the canonical key recipe.  A key digests
  everything that determines a cell's floats: the workload digest from
  the trace store (full profile + trace length + seed + format versions),
  the family's *serialized sizing config* (not just its name — a sizing
  change, or a study variant's, is a different predictor), the hardware
  budget, the evaluation engine (accuracy), the machine config and the
  policy mode the family resolves to (IPC), the quick predictor's size
  (override statistics), the warm-up fraction, the result-format version
  and the measurement :data:`CODE_VERSION` (IPC keys also carry
  :data:`IPC_MODEL_VERSION`).  Changing any component changes the key;
  stale entries simply stop matching.
* :class:`ResultStore` — a directory of checksummed JSON entries written
  through the shared atomic helper (:mod:`repro.common.atomic`).  An entry
  is never trusted on faith: the payload checksum and the full stored key
  are verified on every load, and a truncated, bit-flipped, foreign or
  otherwise inconsistent entry is detected, counted
  (``result_store.corrupt``), deleted and recomputed.  Corruption can cost
  time, never correctness.
* capacity — mtime-LRU eviction above ``REPRO_RESULT_STORE_CAPACITY``
  (default 65,536: results are small JSON files), shared with the trace store
  (:class:`repro.common.storedir.StoreDirectory`): entries are counted
  once per store instance and rescanned only when the count passes the
  cap, so a save does not scan the directory.

The store is enabled by pointing ``REPRO_RESULT_STORE`` at a directory (or
``repro-figures --result-store DIR``).  :func:`repro.harness.sweep.shard_payload`
— the one cell computation, on the in-memory path and in every campaign
worker — layers it under each cell (workers share the store directory
exactly like they share the trace store), so a cell whose key hits
returns its payload without executing anything.

Statistics (hits/misses/writes/corrupt/evictions) are module-wide —
:func:`result_store_stats` — and mirrored into obs counters
(``result_store.*``) when profiling is enabled; each campaign worker
reports its deltas in its ``campaign.worker`` run summary.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Mapping
from dataclasses import asdict, dataclass
from pathlib import Path

from repro import obs
from repro.common import settings
from repro.common.atomic import atomic_path
from repro.common.errors import ReproError
from repro.common.storedir import StoreDirectory

#: Bumped when the entry layout or key recipe changes; part of every key,
#: so old entries stop matching instead of being misread.
RESULT_SCHEMA = 1

#: Bumped whenever the *measurement semantics* change — a predictor update
#: rule fix, an engine change that alters results, a new warm-up policy.
#: Part of every key: results computed by older code are never served as
#: if the current code had produced them.  (Purely structural refactors
#: that provably keep results bit-identical do not require a bump.)
CODE_VERSION = 1

#: Bumped whenever the cycle simulator's results change while accuracy
#: results do not; part of IPC keys (and of the IPC sweep configuration a
#: campaign run directory pins) only.  Version 2: ``MachineConfig``'s
#: cache geometry is simulated (version 1 always simulated Table 1's).
IPC_MODEL_VERSION = 2

#: Hex digits of the key kept in entry filenames (the full key is stored —
#: and verified — inside the entry itself).
DIGEST_PREFIX = 24


class ResultStoreError(ReproError):
    """An entry failed validation (corrupt, foreign, or inconsistent)."""


# -- key recipe ----------------------------------------------------------------


def result_digest(payload: Mapping) -> str:
    """sha256 of the canonical JSON form of ``payload``.

    Canonical means key-sorted with minimal separators, so the digest is
    invariant to dict insertion order and whitespace — two processes (or
    two config files) describing the same cell always derive the same key.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _workload_digest(benchmark: str, instructions: int, seed: int) -> str:
    """The trace store's content digest for one workload — reused verbatim
    so anything that would invalidate a stored trace (a profile constant,
    a format version) invalidates every result computed from it."""
    from repro.workloads.spec2000 import get_profile
    from repro.workloads.store import trace_digest

    return trace_digest(get_profile(benchmark), int(instructions), int(seed))


def cell_key_payload(
    kind: str,
    benchmark: str,
    family: str,
    budget_bytes: int,
    instructions: int,
    seed: int = 1,
    config=None,
    **fields,
) -> dict:
    """Everything that determines one cell of ``kind``, as a JSON-able
    dict: the fields every kind shares plus the kind's own ``fields``.

    ``spec`` is the family's serialized sizing config (``config``, when a
    variant resolved one), so a sizing-rule change (different config for
    the same budget) is a different key, not a false hit.
    """
    from repro.predictors import registry

    return {
        "result_schema": RESULT_SCHEMA,
        "code_version": CODE_VERSION,
        "kind": kind,
        "workload": _workload_digest(benchmark, instructions, seed),
        "spec": registry.serialize_spec(family, budget_bytes, config),
        "budget_bytes": int(budget_bytes),
        **fields,
    }


def accuracy_key_payload(
    benchmark: str,
    family: str,
    budget_bytes: int,
    instructions: int,
    engine: str,
    warmup_fraction: float,
    seed: int = 1,
    config=None,
) -> dict:
    """Everything that determines one accuracy cell, as a JSON-able dict."""
    return cell_key_payload(
        "accuracy", benchmark, family, budget_bytes, instructions, seed, config,
        engine=str(engine), warmup_fraction=float(warmup_fraction),
    )


def ipc_key_payload(
    benchmark: str,
    family: str,
    budget_bytes: int,
    mode: str,
    instructions: int,
    machine: Mapping,
    seed: int = 1,
    config=None,
    quick_entries: int | None = None,
) -> dict:
    """Everything that determines one IPC (cycle-simulation) cell;
    ``quick_entries`` names a quick gshare other than the paper's."""
    quick = {} if quick_entries is None else {"quick_entries": int(quick_entries)}
    return cell_key_payload(
        "ipc", benchmark, family, budget_bytes, instructions, seed, config,
        ipc_model_version=IPC_MODEL_VERSION, mode=str(mode), machine=dict(machine), **quick,
    )


def accuracy_result_key(
    benchmark: str,
    family: str,
    budget_bytes: int,
    instructions: int,
    engine: str,
    warmup_fraction: float,
    seed: int = 1,
) -> str:
    """Content key of one accuracy cell (see :func:`accuracy_key_payload`)."""
    return result_digest(
        accuracy_key_payload(
            benchmark, family, budget_bytes, instructions, engine, warmup_fraction, seed
        )
    )


def ipc_result_key(
    benchmark: str,
    family: str,
    budget_bytes: int,
    mode: str,
    instructions: int,
    machine: Mapping,
    seed: int = 1,
) -> str:
    """Content key of one IPC cell (see :func:`ipc_key_payload`)."""
    return result_digest(
        ipc_key_payload(benchmark, family, budget_bytes, mode, instructions, machine, seed)
    )


# -- statistics ----------------------------------------------------------------

RESULT_STAT_KEYS = ("hits", "misses", "corrupt", "writes", "evictions")
_stats = dict.fromkeys(RESULT_STAT_KEYS, 0)


def result_store_stats() -> dict:
    """Process-wide result-store statistics (across every instance)."""
    return dict(_stats)


def reset_result_store_stats() -> None:
    """Zero the statistics (tests and fresh measurement windows)."""
    for key in RESULT_STAT_KEYS:
        _stats[key] = 0


def _count(key: str, n: int = 1) -> None:
    _stats[key] += n
    if obs.enabled():
        obs.counter(f"result_store.{key}").inc(n)
    if settings.get("REPRO_LOG") is not None:
        from repro.obs.events import emit_store  # deferred: layering

        emit_store("result", key, n)


# -- cell identity --------------------------------------------------------------


@dataclass(frozen=True)
class ResultCell:
    """Human-readable identity of one stored result (filename + audit)."""

    kind: str  # "accuracy" | "ipc" | "override"
    benchmark: str
    family: str
    budget_bytes: int
    mode: str = ""  # ipc cells only: the policy mode the family resolves to

    @property
    def stem(self) -> str:
        """Filename stem; readable on disk, disambiguated by the digest."""
        parts = [self.kind, self.benchmark, self.family, str(self.budget_bytes)]
        if self.mode:
            parts.append(self.mode)
        return "__".join(parts)


# -- the store -----------------------------------------------------------------


class ResultStore(StoreDirectory):
    """A directory of content-addressed, checksummed sweep-result entries.

    Safe for concurrent use by sweep workers: entries are immutable once
    written (same key => byte-identical payload), writes are atomic, and a
    reader that loses a race simply recomputes.
    """

    patterns = ("*.json",)
    capacity_setting = "REPRO_RESULT_STORE_CAPACITY"

    def _evicted(self) -> None:
        _count("evictions")

    def entry_path(self, key: str, cell: ResultCell) -> Path:
        """On-disk location of one entry (exists or not)."""
        return self.root / f"{cell.stem}__{key[:DIGEST_PREFIX]}.json"

    def _read(self, path: Path, key: str, cell: ResultCell) -> dict:
        """Parse and fully validate one entry; raises on any inconsistency."""
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ResultStoreError(f"unreadable result entry {path}: {exc}") from None
        if not isinstance(data, dict) or data.get("schema") != RESULT_SCHEMA:
            raise ResultStoreError(
                f"result entry {path} has schema {data.get('schema') if isinstance(data, dict) else '?'!r}, "
                f"expected {RESULT_SCHEMA}"
            )
        if data.get("key") != key:
            # A well-formed entry parked under this name that answers a
            # *different* question (hand-copied or renamed) — internally
            # consistent, but not this cell.
            raise ResultStoreError(
                f"result entry {path} holds key {data.get('key')!r}, expected {key!r}"
            )
        if data.get("cell") != asdict(cell):
            raise ResultStoreError(
                f"result entry {path} describes cell {data.get('cell')!r}, "
                f"expected {asdict(cell)!r}"
            )
        payload = data.get("payload")
        if not isinstance(payload, dict):
            raise ResultStoreError(f"result entry {path} has no payload object")
        if data.get("checksum") != result_digest(payload):
            raise ResultStoreError(
                f"result entry {path} failed its payload checksum (bit rot or "
                f"truncated write)"
            )
        return payload

    def load(self, key: str, cell: ResultCell) -> dict | None:
        """The stored payload, or None when absent or corrupt.

        A corrupt entry (truncation, bit flip, checksum/key mismatch) is
        counted, deleted, and reported as a miss — never trusted, never
        fatal.
        """
        path = self.entry_path(key, cell)
        if not path.exists():
            return None
        try:
            payload = self._read(path, key, cell)
        except ResultStoreError:
            _count("corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        _count("hits")
        return payload

    def probe(self, key: str, cell: ResultCell) -> bool:
        """Non-mutating hit check (``--dry-run`` classification): True only
        for an entry that would validate.  Counts nothing, deletes nothing."""
        path = self.entry_path(key, cell)
        if not path.exists():
            return False
        try:
            self._read(path, key, cell)
        except ResultStoreError:
            return False
        return True

    def save(self, key: str, cell: ResultCell, payload: Mapping) -> dict:
        """Persist ``payload`` under its content key; returns the payload as
        it will read back (a JSON round-trip, so floats are bit-stable)."""
        payload = json.loads(json.dumps(payload))
        path = self.entry_path(key, cell)
        entry = {
            "schema": RESULT_SCHEMA,
            "key": key,
            "cell": asdict(cell),
            "payload": payload,
            "checksum": result_digest(payload),
        }
        with atomic_path(path) as tmp:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, indent=2, sort_keys=True)
                handle.write("\n")
        _count("writes")
        self._after_write()
        return payload

    def get_or_compute(
        self, key: str, cell: ResultCell, compute: Callable[[], Mapping]
    ) -> dict:
        """Load the entry, or compute + persist it on a miss.

        Both paths return a JSON-round-tripped payload, so cached and
        freshly-computed cells are byte-identical downstream.
        """
        cached = self.load(key, cell)
        if cached is not None:
            return cached
        _count("misses")
        return self.save(key, cell, compute())


# -- the process-wide active store ---------------------------------------------

_active: ResultStore | None = None


def active_result_store() -> ResultStore | None:
    """The store named by ``REPRO_RESULT_STORE``, or None when unset.

    Re-resolved on every call so tests (and the CLI) can repoint the
    process mid-flight; the instance is reused while the path is stable.
    """
    global _active
    path = settings.get("REPRO_RESULT_STORE")
    if path is None:
        _active = None
        return None
    if _active is None or _active.root != Path(path):
        _active = ResultStore(path)
    return _active
