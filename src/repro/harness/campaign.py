"""The sweep executor: classify -> plan -> execute over a campaign run dir.

Every grid the paper reports is a set of independent (kind, benchmark,
family, budget[, mode][, variant]) cells, and this module is the one place
that runs them.  :func:`execute_sweep` is the entry point every sweep
calls; the path it takes is chosen from ``run_dir`` and ``jobs`` alone:

* no run directory and ``jobs == 1`` — the cells are computed in order,
  in this process, through the result store
  (:func:`repro.harness.sweep.compute_shards`), and nothing else is
  written.  This path stays because the on-disk bookkeeping below costs
  1-2 ms per cell, 10-16% of a small accuracy grid at 100k instructions;
* otherwise — the cells are planned into a campaign directory
  (``run_dir``, or a private temporary one for a bare ``jobs > 1``),
  drained by ``jobs`` local workers running :func:`run_worker`, and the
  payloads are read back from the checkpoints in canonical order.

**Classification** (the ProjectScylla ``rerun_agents.py`` model).  Every cell
of a campaign's shard universe lands in exactly one class:

========================  =====================================  ============
class                     evidence                               action
========================  =====================================  ============
``completed``             valid checkpoint under the final name  skip
``partial``               torn checkpoint (unparseable /wrong    re-execute
                          schema / shard mismatch), a staging
                          file whose writer is gone, or a
                          claim file with no checkpoint (worker
                          died mid-cell)
``failed``                failure marker (retry budget            re-execute
                          exhausted on a previous run)
``results_missing``       no checkpoint, but the result store    regenerate
                          has the cell's payload — assemble the  (no predictor
                          checkpoint from the store              work)
``missing``               none of the above                      execute
========================  =====================================  ============

Precedence: completed > partial(torn) > failed > partial(claim) >
results_missing > missing.

**Work queue.**  ``plan`` enqueues one JSON entry per actionable cell under
``<run_dir>/queue/``; any number of worker processes — on any number of
machines sharing the run directory — pull from it.  Mutual exclusion is one
claim file per cell under ``<run_dir>/claims/``, created with
``O_CREAT|O_EXCL`` (:func:`repro.common.atomic.exclusive_create_json`): the
create-or-fail race has exactly one winner.  A claim is *reclaimed* when
its owner is provably gone — recorded on this host by a process that has
exited, or by a worker loop of this process that has returned — or, for
owners this host cannot see, once it is older than
``REPRO_CAMPAIGN_STALE_SECONDS``.  The reclaim is serialized by an atomic
rename of the claim to a tombstone — ``rename(2)`` succeeds for exactly one
reclaimer, so two workers can never both adopt the same dead cell.
Completion order is checkpoint -> dequeue -> release claim, so a crash at
any point leaves evidence the scanner maps back to a class that
re-converges.

**Retries** are requeue-with-budget: a failing cell goes back on the queue
with its attempt count incremented, and every reclaim charges the cell one
attempt too (its owner died running it), until ``max_retries`` is
exhausted; then a failure marker is written and the cell classifies as
``failed`` until a rerun clears it.  A cell that kills its worker every
time therefore ends ``failed`` instead of looping.

Classification, claim, steal, and requeue all emit versioned events on the
:mod:`repro.obs.events` bus (no-ops without ``REPRO_LOG``), and each worker
ends with a ``campaign.worker`` run summary whose ``campaign.cells_executed``
counter is the zero-duplication proof: summed across all workers of a
campaign it must equal the number of planned executions exactly.

The executor's settings (:mod:`repro.common.settings`) are the claim
staleness, the idle poll interval, the retry budget and the
``REPRO_CAMPAIGN_*`` test hooks: a worker that dies after K cells while
holding its next claim, cells that fail their first N attempts, and
cells that sleep inside their span (a deterministic straggler for the
telemetry gates).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import secrets
import shutil
import socket
import tempfile
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass
from multiprocessing.connection import wait

from repro import obs
from repro.common import settings
from repro.common.atomic import (
    abandoned_staging_files,
    atomic_write_json,
    exclusive_create_json,
    pid_exited,
)
from repro.common.errors import ConfigurationError, ReproError
from repro.obs import events as obs_events

#: Bumped when the campaign/queue/claim file layout changes.
CAMPAIGN_SCHEMA = 1

#: Bumped when the shard checkpoint layout changes.
CHECKPOINT_SCHEMA = 1

#: The five run classes, in display order.
CLASSES = ("completed", "results_missing", "failed", "partial", "missing")

#: What the planner does about each class.
ACTIONS = {
    "completed": "skip",
    "results_missing": "regenerate",
    "failed": "execute",
    "partial": "execute",
    "missing": "execute",
}

#: Store-statistic keys a worker reports in its run summary.
STORE_STAT_KEYS = ("hits", "misses", "corrupt", "writes", "evictions")

#: ``--status`` spellings accepted for each canonical class.
STATUS_ALIASES = {
    "completed": "completed",
    "results": "results_missing",
    "results-missing": "results_missing",
    "results_missing": "results_missing",
    "failed": "failed",
    "partial": "partial",
    "missing": "missing",
}


class CampaignError(ReproError):
    """A campaign operation failed (bad layout, incomplete merge, ...)."""


class SweepExecutionError(ReproError):
    """Sweep cells kept failing after exhausting their retry budget."""


def resolve_max_retries(max_retries: int | None = None) -> int:
    """Per-cell retry budget: explicit argument, else ``REPRO_MAX_RETRIES``."""
    if max_retries is None:
        return settings.get("REPRO_MAX_RETRIES")
    if max_retries < 0:
        raise ConfigurationError(f"max retries must be >= 0, got {max_retries}")
    return max_retries


def normalize_statuses(raw: str | list[str]) -> list[str]:
    """Canonical class names for a ``--status`` value (comma-separable)."""
    if isinstance(raw, str):
        raw = raw.split(",")
    names = []
    for item in raw:
        item = item.strip().lower()
        if not item:
            continue
        canonical = STATUS_ALIASES.get(item)
        if canonical is None:
            raise ConfigurationError(
                f"unknown status {item!r}; choose from "
                + ", ".join(sorted(set(STATUS_ALIASES)))
            )
        if canonical not in names:
            names.append(canonical)
    if not names:
        raise ConfigurationError("no statuses given")
    return names


# -- shards --------------------------------------------------------------------


@dataclass(frozen=True)
class Shard:
    """One independent (kind, benchmark, family, budget[, mode][, variant])
    work unit."""

    kind: str  # "accuracy" | "ipc" | "override"
    benchmark: str
    family: str
    budget_bytes: int
    mode: str = ""  # ipc shards only
    #: Overrides of what the cell builds, ``target.field=value`` joined by
    #: commas (:attr:`repro.harness.figconfig.Variant.key`); "" builds the
    #: sized family on the paper's machine.
    variant: str = ""

    @property
    def key(self) -> str:
        """Stable identifier; doubles as the checkpoint file stem."""
        parts = [self.kind, self.benchmark, self.family, str(self.budget_bytes)]
        parts.extend(part for part in (self.mode, self.variant) if part)
        return "__".join(parts)


def shard_grid(
    kind: str,
    families: list[str],
    budgets: list[int],
    benchmarks: list[str],
    modes: tuple[str, ...] = ("",),
    variants: tuple[str, ...] = ("",),
) -> list[Shard]:
    """Every cell in canonical order — benchmark, family, budget, mode,
    variant — which is the serial sweeps' iteration order and every
    merge's order."""
    return [
        Shard(kind, benchmark, family, budget, mode, variant)
        for benchmark in benchmarks
        for family in families
        for budget in budgets
        for mode in modes
        for variant in variants
    ]


def shard_from_dict(data: dict) -> Shard:
    """Rebuild a :class:`Shard` from its ``asdict`` form."""
    return Shard(
        kind=data["kind"],
        benchmark=data["benchmark"],
        family=data["family"],
        budget_bytes=int(data["budget_bytes"]),
        mode=data.get("mode", ""),
        variant=data.get("variant", ""),
    )


def _shard_result_key(shard: Shard, cfg: dict) -> tuple[str, "object"]:
    """The shard's result-store (key, cell) pair — one recipe for every
    executor path, so in-memory and campaign runs share one cache."""
    from repro.harness.sweep import resolve_shard

    return resolve_shard(shard, cfg).result_key(cfg)


# -- on-disk layout ------------------------------------------------------------


class CampaignLayout:
    """Path arithmetic for one campaign's shared run directory.

    ::

        <run_dir>/
          campaign.json            pinned shard universe + per-kind config
          shards/<key>.json        completed-cell checkpoints
          shards/<key>.failed.json failure markers (retry budget exhausted)
          queue/<key>.json         outstanding work units
          claims/<key>.json        live worker claims
          merged.json              the deterministic merge
    """

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        self.shard_dir = os.path.join(run_dir, "shards")
        self.queue_dir = os.path.join(run_dir, "queue")
        self.claim_dir = os.path.join(run_dir, "claims")
        self.campaign_path = os.path.join(run_dir, "campaign.json")
        self.merged_path = os.path.join(run_dir, "merged.json")

    def ensure(self) -> "CampaignLayout":
        for directory in (self.shard_dir, self.queue_dir, self.claim_dir):
            os.makedirs(directory, exist_ok=True)
        return self

    def checkpoint_path(self, shard: Shard) -> str:
        return os.path.join(self.shard_dir, f"{shard.key}.json")

    def failure_path(self, shard: Shard) -> str:
        return os.path.join(self.shard_dir, f"{shard.key}.failed.json")

    def queue_path(self, key: str) -> str:
        return os.path.join(self.queue_dir, f"{key}.json")

    def claim_path(self, key: str) -> str:
        return os.path.join(self.claim_dir, f"{key}.json")


def _read_json(path: str) -> dict | None:
    """``path`` parsed as a JSON object, or None (absent, torn, not a dict)."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


@dataclass
class ShardOutcome:
    """A finished shard: its payload plus execution bookkeeping."""

    shard: Shard
    payload: dict
    duration_seconds: float
    worker_pid: int
    retries: int = 0


class CheckpointStore:
    """Per-shard JSON checkpoints under ``<run_dir>/shards``."""

    def __init__(self, run_dir: str) -> None:
        self.layout = CampaignLayout(run_dir)
        os.makedirs(self.layout.shard_dir, exist_ok=True)

    def load(self, shard: Shard) -> ShardOutcome | None:
        """The checkpointed outcome for ``shard``, or None if absent/invalid."""
        data = _read_json(self.layout.checkpoint_path(shard))
        if data is None or not _is_checkpoint_of(data, shard):
            return None
        worker = data.get("worker") or {}
        return ShardOutcome(
            shard=shard,
            payload=data["payload"],
            duration_seconds=worker.get("duration_seconds", 0.0),
            worker_pid=worker.get("pid", 0),
            retries=worker.get("retries", 0),
        )

    def store(self, outcome: ShardOutcome) -> None:
        """Atomically persist one finished shard (tmp.<pid> + rename: a
        writer killed mid-write leaves only a staging file)."""
        atomic_write_json(
            self.layout.checkpoint_path(outcome.shard),
            {
                "schema": CHECKPOINT_SCHEMA,
                "shard": asdict(outcome.shard),
                "payload": outcome.payload,
                "worker": {
                    "pid": outcome.worker_pid,
                    "duration_seconds": outcome.duration_seconds,
                    "retries": outcome.retries,
                },
            },
        )


def _is_checkpoint_of(data: dict, shard: Shard) -> bool:
    return data.get("schema") == CHECKPOINT_SCHEMA and data.get("shard") == asdict(shard)


# -- campaign spec -------------------------------------------------------------


def create_campaign(
    run_dir: str,
    shards: list[Shard],
    cfg_by_kind: dict[str, dict],
    label: str = "campaign",
) -> dict:
    """Create (or idempotently join) the campaign pinned in ``run_dir``.

    The first creator writes ``campaign.json`` — the shard universe in
    canonical merge order plus the per-kind sweep configuration.  Later
    callers (concurrent workers, reruns) must present an identical
    universe and configuration or the directory is refused rather than
    silently mixed.
    """
    existing = _read_json(CampaignLayout(run_dir).campaign_path)
    if existing is not None and (
        existing.get("shards") != [asdict(shard) for shard in shards]
        or existing.get("cfg") != json.loads(json.dumps(cfg_by_kind))
    ):
        raise ConfigurationError(
            f"run directory {run_dir!r} already holds a different campaign "
            f"(label {existing.get('label')!r}); use a fresh run dir or rerun "
            f"with the original grid and configuration"
        )
    return extend_campaign(run_dir, shards, cfg_by_kind, label=label)


def extend_campaign(
    run_dir: str,
    shards: list[Shard],
    cfg_by_kind: dict[str, dict],
    label: str = "campaign",
) -> dict:
    """Plan ``shards`` into the campaign in ``run_dir``, growing its universe.

    The run-dir rule for sweeps: the pinned universe grows append-only —
    each sweep planned into the directory appends the cells it lacks — and
    each kind's configuration, pinned by the first sweep of that kind,
    must match exactly (``ConfigurationError`` otherwise, rather than
    mixing cells measured under different settings).  So
    ``campaign.json`` covers every sweep planned into the directory.
    Single writer: only the process planning the sweep extends it.
    """
    layout = CampaignLayout(run_dir).ensure()
    requested = json.loads(json.dumps(cfg_by_kind))
    spec = _read_json(layout.campaign_path) or {
        "schema": CAMPAIGN_SCHEMA,
        "label": label,
        "cfg": {},
        "shards": [],
    }
    if spec.get("schema") != CAMPAIGN_SCHEMA:
        raise ConfigurationError(
            f"{layout.campaign_path} has campaign schema {spec.get('schema')!r}; "
            f"this build reads schema {CAMPAIGN_SCHEMA} — use a fresh run dir"
        )
    changed = not os.path.exists(layout.campaign_path)
    for kind, cfg in requested.items():
        pinned = spec["cfg"].get(kind)
        if pinned is None:
            spec["cfg"][kind] = cfg
            changed = True
        elif pinned != cfg:
            raise ConfigurationError(
                f"run directory {run_dir!r} was created with a different "
                f"{kind}-sweep configuration; resume with the original "
                f"REPRO_SCALE/REPRO_ENGINE/machine settings and code version, "
                f"or use a fresh --run-dir (pinned: {pinned}, requested: {cfg})"
            )
    known = {shard_from_dict(item).key for item in spec["shards"]}
    added = [asdict(shard) for shard in shards if shard.key not in known]
    if added or changed:
        spec["shards"].extend(added)
        atomic_write_json(layout.campaign_path, spec)
    return spec


def load_campaign(run_dir: str) -> dict:
    """The campaign pinned in ``run_dir`` (raises without one)."""
    layout = CampaignLayout(run_dir)
    spec = _read_json(layout.campaign_path)
    if spec is None:
        raise CampaignError(
            f"{layout.campaign_path} not found or unreadable — create the "
            f"campaign first (repro-campaign run) before scanning it"
        )
    if spec.get("schema") != CAMPAIGN_SCHEMA:
        raise CampaignError(
            f"{layout.campaign_path} has campaign schema {spec.get('schema')!r}; "
            f"this build reads schema {CAMPAIGN_SCHEMA}"
        )
    return spec


def campaign_shards(spec: dict) -> list[Shard]:
    """The campaign's shard universe, in canonical merge order."""
    return [shard_from_dict(item) for item in spec["shards"]]


# -- classification ------------------------------------------------------------


@dataclass(frozen=True)
class CellStatus:
    """One classified cell: the shard, its class, and the planned action."""

    shard: Shard
    status: str

    @property
    def action(self) -> str:
        return ACTIONS[self.status]


def _checkpoint_state(layout: CampaignLayout, shard: Shard) -> str:
    """``"valid"`` / ``"torn"`` / ``"absent"`` for one cell's checkpoint.

    Torn means *evidence of an interrupted write*: a file under the final
    name that does not parse, carries the wrong schema, or describes a
    different shard — or, with no valid final file, a staging sibling whose
    writer is gone (the stores' rule, :func:`abandoned_staging_files`; a
    live writer's staging file is no evidence of anything).
    ``CheckpointStore.load`` collapses all of those to "absent" (correct
    for reading results); classification must keep them distinct because a
    torn checkpoint proves a worker died *here*.
    """
    path = layout.checkpoint_path(shard)
    data = _read_json(path)
    if data is not None:
        return "valid" if _is_checkpoint_of(data, shard) else "torn"
    if os.path.exists(path):
        return "torn"  # present but unreadable/unparseable: killed mid-write
    if abandoned_staging_files(*os.path.split(path)):
        return "torn"
    return "absent"


def classify_shard(
    shard: Shard,
    layout: CampaignLayout | None = None,
    result_store=None,
    cfg: dict | None = None,
) -> str:
    """The class of one cell (see the module table).

    With a ``layout`` the full five-class evidence chain applies.  Without
    one (figconfig's pure-store classification, where no run directory
    exists) the result store is the only evidence: hit -> ``completed``,
    miss -> ``missing``.
    """
    hit = None
    if result_store is not None and cfg is not None:
        key, cell = _shard_result_key(shard, cfg)
        hit = result_store.probe(key, cell)
    if layout is None:
        return "completed" if hit else "missing"
    state = _checkpoint_state(layout, shard)
    if state == "valid":
        return "completed"
    if state == "torn":
        return "partial"
    if os.path.exists(layout.failure_path(shard)):
        return "failed"
    if os.path.exists(layout.claim_path(shard.key)):
        return "partial"
    if hit:
        return "results_missing"
    return "missing"


def scan(
    run_dir: str,
    shards: list[Shard] | None = None,
    cfg_by_kind: dict[str, dict] | None = None,
    label: str = "",
) -> list[CellStatus]:
    """Classify every cell of the campaign in ``run_dir``.

    ``shards``/``cfg_by_kind`` default to the pinned ``campaign.json``.
    Emits one ``classify`` event with the per-class counts.
    """
    if shards is None or cfg_by_kind is None:
        spec = load_campaign(run_dir)
        shards = campaign_shards(spec) if shards is None else shards
        cfg_by_kind = spec["cfg"] if cfg_by_kind is None else cfg_by_kind
        label = label or spec.get("label", "")
    layout = CampaignLayout(run_dir)
    from repro.harness.resultstore import active_result_store

    result_store = active_result_store()
    cells = [
        CellStatus(
            shard,
            classify_shard(
                shard,
                layout=layout,
                result_store=result_store,
                cfg=cfg_by_kind.get(shard.kind),
            ),
        )
        for shard in shards
    ]
    obs_events.emit_classify(class_counts(cells), label=label or "campaign.scan")
    return cells


def class_counts(cells: list[CellStatus]) -> dict[str, int]:
    """Per-class cell counts, zero-filled over all five classes."""
    counts = dict.fromkeys(CLASSES, 0)
    for cell in cells:
        counts[cell.status] += 1
    return counts


# -- work queue ----------------------------------------------------------------

#: Tokens of this process's work queues whose worker loop may still hold
#: claims; :func:`run_worker` retires its queue's token when it returns or
#: raises, so its leftover claims are provably abandoned.
_LIVE_TOKENS: set[str] = set()


def _owner_gone(claim: dict) -> bool:
    """True when ``claim``'s owner provably no longer runs: the claim was
    made on this host by a process that has exited, or by a worker loop of
    this very process whose queue token is retired.  Owners on other hosts
    (or a live pid) are never presumed dead — they keep the timeout."""
    if claim.get("host") != socket.gethostname():
        return False
    pid = claim.get("pid")
    if pid == os.getpid():
        return claim.get("token") not in _LIVE_TOKENS
    if not isinstance(pid, int) or pid <= 0:
        return False
    return pid_exited(pid)


class WorkQueue:
    """The file-locked on-disk work queue under ``<run_dir>/queue``.

    Entries are one JSON file per cell; claims are one JSON file per cell
    under ``<run_dir>/claims``.  Everything is safe against concurrent
    workers on machines that only share the filesystem: entry writes are
    atomic renames, claims are ``O_EXCL`` creates, and steals are
    serialized by the tombstone rename (exactly one ``rename(2)`` caller
    sees the source file).  Each queue's claims carry its ``token``, which
    stays live until :meth:`retire`.
    """

    def __init__(self, layout: CampaignLayout) -> None:
        self.layout = layout
        self.token = secrets.token_hex(8)
        _LIVE_TOKENS.add(self.token)

    def retire(self) -> None:
        """Declare this queue's worker loop over: claims it still holds
        become reclaimable at once by any worker on this host."""
        _LIVE_TOKENS.discard(self.token)

    # entries ------------------------------------------------------------

    def enqueue(self, shard: Shard, action: str, attempts: int = 0) -> None:
        """Idempotently (re)write one work unit."""
        atomic_write_json(
            self.layout.queue_path(shard.key),
            {
                "schema": CAMPAIGN_SCHEMA,
                "shard": asdict(shard),
                "action": action,
                "attempts": attempts,
            },
        )

    def entry(self, key: str) -> dict | None:
        """The current entry for ``key`` (None once dequeued)."""
        data = _read_json(self.layout.queue_path(key))
        if data is None or data.get("schema") != CAMPAIGN_SCHEMA:
            return None
        return data

    def keys(self) -> list[str]:
        """Outstanding work-unit keys, sorted for deterministic pull order."""
        try:
            names = os.listdir(self.layout.queue_dir)
        except OSError:
            return []
        return sorted(
            name[: -len(".json")]
            for name in names
            if name.endswith(".json") and ".tmp." not in name
        )

    def dequeue(self, key: str) -> None:
        try:
            os.unlink(self.layout.queue_path(key))
        except OSError:
            pass

    # claims -------------------------------------------------------------

    def try_claim(self, key: str, owner: str, stale_seconds: float) -> str | None:
        """Claim ``key`` for ``owner``: ``"claimed"``, ``"stolen"``, or None.

        None means another worker holds a live claim — skip the cell and
        come back later.  A claim whose owner is provably gone
        (:func:`_owner_gone`), or whose ``ts`` is older than
        ``stale_seconds`` (or that is unreadable and its file that old), is
        stolen: the claim file is renamed to a PID-suffixed tombstone
        first, and since exactly one concurrent ``rename`` of the same
        source succeeds, exactly one stealer proceeds to re-create the
        claim — via the same ``O_EXCL`` create a fresh claimer uses, so a
        stealer can still lose to a faster fresh claimer and back off.
        """
        path = self.layout.claim_path(key)
        claim = {
            "schema": CAMPAIGN_SCHEMA,
            "owner": owner,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "token": self.token,
            "ts": time.time(),
        }
        if exclusive_create_json(path, claim):
            return "claimed"
        existing = _read_json(path)
        if existing is None:
            # Unreadable claim: fall back to the file clock rather than
            # presuming its writer dead — claims are published with their
            # content (link trick), so this is a legacy/corrupt file, and
            # mtime still bounds how long its owner could have been alive.
            try:
                age = time.time() - os.stat(path).st_mtime
            except OSError:
                return None  # vanished under us: released or stolen; move on
            if age < stale_seconds:
                return None
        elif not _owner_gone(existing):
            if time.time() - float(existing.get("ts", 0.0)) < stale_seconds:
                return None
        tombstone = f"{path}.stale.{os.getpid()}"
        try:
            os.rename(path, tombstone)
        except OSError:
            return None  # another stealer won the rename
        try:
            os.unlink(tombstone)
        except OSError:
            pass
        if exclusive_create_json(path, claim):
            return "stolen"
        return None

    def release(self, key: str) -> None:
        try:
            os.unlink(self.layout.claim_path(key))
        except OSError:
            pass


# -- planner -------------------------------------------------------------------


def plan(
    run_dir: str,
    statuses: list[str] | None = None,
    cells: list[CellStatus] | None = None,
) -> dict[str, int]:
    """Turn a scan into queued work; returns per-action planned counts.

    Every actionable cell (anything but ``completed``) is enqueued —
    restricted to ``statuses`` when given (the ``rerun --status`` path).
    Planning a ``failed`` or ``partial`` cell clears its stale evidence
    (failure marker, torn checkpoint, abandoned staging files) so the fresh
    execution starts from a clean slate; live claims are deliberately left
    alone — the reclaim in :meth:`WorkQueue.try_claim` is the only
    codepath allowed to break one.
    """
    layout = CampaignLayout(run_dir).ensure()
    queue = WorkQueue(layout)
    if cells is None:
        cells = scan(run_dir)
    planned = {"execute": 0, "regenerate": 0, "skip": 0}
    for cell in cells:
        if statuses is not None and cell.status not in statuses:
            continue
        if cell.action == "skip":
            planned["skip"] += 1
            continue
        if cell.status == "failed":
            try:
                os.unlink(layout.failure_path(cell.shard))
            except OSError:
                pass
        if cell.status == "partial":
            checkpoint = layout.checkpoint_path(cell.shard)
            for stale in abandoned_staging_files(*os.path.split(checkpoint)):
                try:
                    os.unlink(stale)
                except OSError:
                    pass
            data = _read_json(checkpoint)
            if data is None or not _is_checkpoint_of(data, cell.shard):
                try:
                    os.unlink(checkpoint)
                except OSError:
                    pass
        queue.enqueue(cell.shard, cell.action)
        planned[cell.action] += 1
    return planned


# -- worker --------------------------------------------------------------------


def _execute_shard(shard: Shard, cfg: dict, attempt: int) -> dict:
    """Run one cell for a worker; returns its payload.

    The cell itself is :func:`repro.harness.sweep.shard_payload` — the one
    cell computation, shared with the in-memory path — wrapped in the
    ``campaign.shard`` span and the failure/straggler test hooks.
    """
    from repro.harness import sweep
    from repro.harness.resultstore import active_result_store

    fail_cell = settings.get("REPRO_CAMPAIGN_FAIL_CELL")
    if fail_cell and fail_cell in shard.key:
        if attempt < settings.get("REPRO_CAMPAIGN_FAIL_ATTEMPTS"):
            raise RuntimeError(
                f"injected failure for shard {shard.key} (attempt {attempt})"
            )
    with obs.span("campaign.shard", shard=shard.key, attempt=attempt):
        # Inside the span so the injected straggler is visible to the
        # telemetry it exists to exercise (straggler stats, regress gate).
        slow_cell = settings.get("REPRO_CAMPAIGN_SLOW_CELL")
        if slow_cell and slow_cell in shard.key:
            time.sleep(settings.get("REPRO_CAMPAIGN_SLOW_SECONDS"))
        return sweep.shard_payload(shard, cfg, active_result_store())


def _regenerate_payload(shard: Shard, cfg: dict) -> dict | None:
    """The cell's payload straight from the result store (None on miss).

    The ``results_missing`` fast path: no trace load, no predictor build —
    the store entry *is* the result, checksum-verified by the store itself.
    """
    from repro.harness.resultstore import active_result_store

    store = active_result_store()
    if store is None:
        return None
    key, cell = _shard_result_key(shard, cfg)
    return store.load(key, cell)


def _store_counts() -> dict[str, dict]:
    """This process's trace- and result-store statistics."""
    from repro.harness.resultstore import result_store_stats
    from repro.workloads.store import store_stats

    return {"trace_store": store_stats(), "result_store": result_store_stats()}


def _store_deltas(before: dict[str, dict]) -> dict[str, dict]:
    """Store-statistic changes since ``before`` (a :func:`_store_counts`)."""
    after = _store_counts()
    return {
        store: {key: after[store][key] - before[store][key] for key in STORE_STAT_KEYS}
        for store in after
    }


def run_worker(
    run_dir: str,
    owner: str | None = None,
    stale_seconds: float | None = None,
    poll_seconds: float | None = None,
    max_retries: int | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> dict:
    """Pull work units from the campaign queue until it drains.

    One call = one worker.  Run any number of these concurrently against
    the same run directory (locally or across machines sharing it); the
    claim protocol guarantees each cell executes exactly once barring
    crashes, and crash recovery is a reclaim or a rescan away.

    ``should_stop`` is polled between cells (never mid-cell): when it goes
    truthy the worker finishes the cell it holds, releases its claim, and
    returns with summary status ``"stopped"`` — the graceful-drain hook the
    sweep executor and the prediction service's SIGTERM path use.  A
    stopped worker leaves the queue intact; rescanning and rerunning later
    re-converges.

    Returns this worker's counters: ``cells_executed``,
    ``cells_regenerated``, ``claims``, ``steals``, ``requeues``,
    ``failures``.  They end the worker's ``campaign.worker`` run summary,
    next to its trace- and result-store statistic deltas.
    """
    spec = load_campaign(run_dir)
    cfg_by_kind = spec["cfg"]
    layout = CampaignLayout(run_dir).ensure()
    queue = WorkQueue(layout)
    store = CheckpointStore(run_dir)
    owner = owner or f"{socket.gethostname()}:{os.getpid()}"
    if stale_seconds is None:
        stale_seconds = settings.get("REPRO_CAMPAIGN_STALE_SECONDS")
    if poll_seconds is None:
        poll_seconds = settings.get("REPRO_CAMPAIGN_POLL_SECONDS")
    max_retries = resolve_max_retries(max_retries)
    abort_after = settings.get("REPRO_CAMPAIGN_ABORT_AFTER")
    with obs.claim_log_ownership():
        stores_before = _store_counts()
        counters = {
            "cells_executed": 0,
            "cells_regenerated": 0,
            "claims": 0,
            "steals": 0,
            "requeues": 0,
            "failures": 0,
        }
        status = "completed"
        started = time.perf_counter()
        try:
            with obs.span("campaign.worker", owner=owner, run_dir=run_dir):
                stopped = False
                while not stopped:
                    keys = queue.keys()
                    if not keys:
                        break
                    progressed = False
                    for key in keys:
                        if should_stop is not None and should_stop():
                            stopped = True
                            break
                        claim = queue.try_claim(key, owner, stale_seconds)
                        if claim is None:
                            continue
                        progressed = True
                        counters["claims"] += 1
                        if claim == "stolen":
                            counters["steals"] += 1
                        obs_events.emit_claim(key, owner, stolen=claim == "stolen")
                        # A raise out of _work_one (the abort drill, or anything
                        # unexpected) deliberately leaves the claim held — that
                        # is exactly the evidence a crashed worker leaves, and
                        # the reclaim is how it gets cleaned up.
                        _work_one(
                            key,
                            queue,
                            store,
                            cfg_by_kind,
                            counters,
                            max_retries,
                            abort_after,
                            reclaimed=claim == "stolen",
                        )
                        queue.release(key)
                    if not stopped and not progressed and queue.keys():
                        # Everything outstanding is claimed by live workers;
                        # wait for them to finish, fail, or die.
                        time.sleep(poll_seconds)
                if stopped:
                    status = "stopped"
        except BaseException:
            status = "aborted"
            raise
        finally:
            queue.retire()
            summary = {
                "schema": CAMPAIGN_SCHEMA,
                "owner": owner,
                "status": status,
                "wall_seconds": time.perf_counter() - started,
                "cells": dict(counters),
                **_store_deltas(stores_before),
            }
            obs_events.emit_counter(
                {f"campaign.{name}": value for name, value in counters.items()}
            )
            obs_events.emit_run_summary("campaign.worker", summary)
            if obs.enabled():
                for name, value in counters.items():
                    obs.counter(f"campaign.{name}").inc(value)
    return counters


def _work_one(
    key: str,
    queue: WorkQueue,
    store: CheckpointStore,
    cfg_by_kind: dict[str, dict],
    counters: dict[str, int],
    max_retries: int,
    abort_after: int,
    reclaimed: bool,
) -> None:
    """Process one claimed work unit.

    The entry is re-read *after* claiming: a worker that completed the cell
    moments ago dequeued it before releasing its claim, so a vanished entry
    (or an already-valid checkpoint) means the work is done, not ours.  A
    ``reclaimed`` cell's previous owner died running it: that attempt is
    charged before this one starts.
    """
    entry = queue.entry(key)
    if entry is None:
        return
    shard = shard_from_dict(entry["shard"])
    if store.load(shard) is not None:
        queue.dequeue(key)
        return
    done = counters["cells_executed"] + counters["cells_regenerated"]
    if abort_after and done >= abort_after:
        # Crash drill: die holding this claim, leaving the held-claim /
        # still-queued evidence the scanner must classify as partial.
        raise RuntimeError(
            f"aborted by REPRO_CAMPAIGN_ABORT_AFTER={abort_after} "
            f"after {done} cells (claim {key} left held)"
        )
    cfg = cfg_by_kind.get(shard.kind)
    if cfg is None:
        raise CampaignError(f"campaign has no configuration for kind {shard.kind!r}")
    attempt = int(entry.get("attempts", 0))
    action = entry.get("action", "execute")
    if reclaimed:
        error = "worker died holding the claim"
        if not _charge(queue, store.layout, shard, action, attempt, error, counters, max_retries):
            return
        attempt += 1
    started = time.perf_counter()
    try:
        payload = _regenerate_payload(shard, cfg) if action == "regenerate" else None
        # A store entry evicted since the scan falls through to a normal
        # execution rather than failing the cell.
        regenerated = payload is not None
        if payload is None:
            payload = _execute_shard(shard, cfg, attempt)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        _charge(queue, store.layout, shard, action, attempt, error, counters, max_retries)
        return
    store.store(
        ShardOutcome(
            shard=shard,
            payload=payload,
            duration_seconds=time.perf_counter() - started,
            worker_pid=os.getpid(),
            retries=attempt,
        )
    )
    obs_events.emit_checkpoint(key, "store")
    counters["cells_regenerated" if regenerated else "cells_executed"] += 1
    queue.dequeue(key)


def _charge(
    queue: WorkQueue,
    layout: CampaignLayout,
    shard: Shard,
    action: str,
    attempt: int,
    error: str,
    counters: dict[str, int],
    max_retries: int,
) -> bool:
    """Record one failed attempt of ``shard``.  Within the retry budget the
    cell is requeued with ``attempt + 1`` (True); past it a failure marker
    is written and the cell leaves the queue (False)."""
    counters["failures"] += 1
    obs_events.emit_retry(shard.key, attempt, error)
    if attempt < max_retries:
        queue.enqueue(shard, action, attempts=attempt + 1)
        counters["requeues"] += 1
        obs_events.emit_requeue(shard.key, attempt + 1, error)
        return True
    atomic_write_json(
        layout.failure_path(shard),
        {
            "schema": CAMPAIGN_SCHEMA,
            "shard": asdict(shard),
            "attempts": attempt + 1,
            "error": error,
            "ts": time.time(),
        },
    )
    queue.dequeue(shard.key)
    return False


# -- merge ---------------------------------------------------------------------


def merge(run_dir: str) -> dict:
    """Assemble ``merged.json`` from the campaign's checkpoints.

    Rows are emitted in the canonical order pinned by ``campaign.json``
    and contain only the shard identity and its payload — no PIDs, no
    timings — so a merge is byte-identical across serial, parallel,
    interrupted-and-resumed, and multi-worker campaigns that computed the
    same cells.
    """
    spec = load_campaign(run_dir)
    layout = CampaignLayout(run_dir)
    store = CheckpointStore(run_dir)
    rows = []
    incomplete = []
    for shard in campaign_shards(spec):
        outcome = store.load(shard)
        if outcome is None:
            incomplete.append(shard.key)
            continue
        rows.append({"shard": asdict(shard), "payload": outcome.payload})
    if incomplete:
        raise CampaignError(
            f"campaign in {run_dir!r} is not complete; "
            f"{len(incomplete)} cells lack checkpoints "
            f"(first: {incomplete[0]}) — run workers or rerun failed cells first"
        )
    merged = {
        "schema": CAMPAIGN_SCHEMA,
        "label": spec.get("label", ""),
        "rows": rows,
    }
    atomic_write_json(layout.merged_path, merged)
    return merged


# -- the executor --------------------------------------------------------------


def execute_sweep(
    shards: list[Shard],
    cfg: dict,
    jobs: int = 1,
    run_dir: str | None = None,
    max_retries: int | None = None,
    label: str = "sweep",
) -> list[dict]:
    """Every shard's payload, in ``shards`` order — the one sweep executor.

    ``cfg`` is the JSON-able configuration of the shards' kind (trace
    length, engine, machine parameters).  See the module docstring for the
    two paths; cells that exhaust their retry budget raise
    :class:`SweepExecutionError` once every other cell is checkpointed.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if run_dir is None and jobs == 1:
        from repro.harness import sweep

        return sweep.compute_shards(shards, cfg)
    private = run_dir is None
    if private:
        run_dir = tempfile.mkdtemp(prefix="repro-sweep-")
    try:
        max_retries = resolve_max_retries(max_retries)
        cfg_by_kind = {kind: cfg for kind in sorted({shard.kind for shard in shards})}
        # Own the REPRO_LOG file while any worker exists: workers inherit
        # the owner PID and route their events to per-PID sidecars.
        with obs.claim_log_ownership():
            extend_campaign(run_dir, shards, cfg_by_kind, label=label)
            planned = plan(run_dir, cells=scan(run_dir, shards, cfg_by_kind, label=label))
            with obs.span(
                "campaign.run", label=label, jobs=jobs, shards=len(shards),
                resumed=planned["skip"],
            ):
                try:
                    if jobs == 1:
                        run_worker(run_dir, max_retries=max_retries)
                    else:
                        _drain_locally(run_dir, jobs, max_retries, len(shards))
                finally:
                    # Pull every worker's per-PID sidecar into the main event
                    # log (a no-op without REPRO_LOG).
                    obs_events.collect_worker_events()
        store = CheckpointStore(run_dir)
        outcomes = [store.load(shard) for shard in shards]
        failed = [shard for shard, outcome in zip(shards, outcomes) if outcome is None]
        if not failed:
            return [outcome.payload for outcome in outcomes]
        marker = _read_json(store.layout.failure_path(failed[0])) or {}
        resume = "" if private else (
            f"; the other cells are checkpointed in {run_dir} — fix the cause "
            f"and rerun with --resume {run_dir}"
        )
        raise SweepExecutionError(
            f"{len(failed)} of {len(shards)} cells did not complete "
            f"(max_retries={max_retries}); first: {failed[0].key}: "
            f"{marker.get('error', 'no checkpoint')}{resume}"
        )
    finally:
        if private:
            shutil.rmtree(run_dir, ignore_errors=True)


def _drain_locally(run_dir: str, jobs: int, max_retries: int, cells: int) -> None:
    """Drain the queue in ``run_dir`` with ``jobs`` local worker processes.

    Workers are forks of this process: they inherit its registry
    (families registered only here included) and trace cache, where
    spawned workers would re-import the package for every sweep and lose
    those registrations.  Fork from a single-threaded process, as
    ``repro-figures`` is.  A worker killed outright is replaced while work
    remains — the dead-owner rule reclaims its claim at once and charges
    the cell one attempt, which bounds the replacements.  A worker that
    raises stops the others after their current cell; its error is
    re-raised here.
    """
    context = multiprocessing.get_context("fork")
    stop = context.Event()
    trace_ctx = obs.current_context()
    queue = WorkQueue(CampaignLayout(run_dir))
    workers: dict[int, tuple] = {}

    def start() -> None:
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=_local_worker,
            args=(run_dir, max_retries, trace_ctx, stop, sender),
            daemon=True,
        )
        process.start()
        sender.close()
        workers[process.sentinel] = (process, receiver)

    for _ in range(jobs):
        start()
    replacements = cells * (max_retries + 1)
    error = None
    while workers:
        for sentinel in wait(list(workers)):
            process, receiver = workers.pop(sentinel)
            try:
                report = receiver.recv()
            except EOFError:
                report = None  # killed before reporting
            receiver.close()
            process.join()
            if report is None:
                if not stop.is_set() and queue.keys() and replacements > 0:
                    replacements -= 1
                    start()
            elif "error" in report:
                error = error or report["error"]
                stop.set()
            elif obs.enabled():
                # Worker-process counters never reach this registry on
                # their own; fold them in.
                for name, value in report["cells"].items():
                    obs.counter(f"campaign.{name}").inc(value)
                for store in ("trace_store", "result_store"):
                    for key, value in report[store].items():
                        if value:
                            obs.counter(f"{store}.{key}").inc(value)
    if error is not None:
        raise RuntimeError(f"campaign worker failed: {error}")


def _local_worker(run_dir, max_retries, trace_ctx, stop, sender) -> None:
    """One local worker process: drain the queue under the parent's span
    context, then report its counters (or its error) over ``sender``."""
    obs.adopt_context(trace_ctx)
    before = _store_counts()
    try:
        counters = run_worker(run_dir, max_retries=max_retries, should_stop=stop.is_set)
    except BaseException as exc:
        # Bounded: the parent reads only after this process exits, so the
        # message must fit the pipe buffer.
        sender.send({"error": f"{type(exc).__name__}: {exc}"[:4096]})
        raise
    sender.send({"cells": counters, **_store_deltas(before)})
