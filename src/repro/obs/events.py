"""Run-local event bus: the versioned JSONL event schema and its readers.

Every observability sink in this repo ultimately speaks one wire format:
newline-delimited JSON records appended to the file named by ``REPRO_LOG``
(see :mod:`repro.obs` for the on-disk layout, including the per-worker
sidecar files that keep concurrent writers from interleaving).  This
module is the schema's home — the event types, the emit helpers the
harness uses for non-span events, and the read/merge side that
:mod:`repro.obs.aggregate` and the ``repro-stats`` telemetry subcommands
consume.

Event types (every record carries ``v`` = :data:`EVENT_SCHEMA`, ``ts`` =
unix time, and ``pid`` = the emitting process):

``span_open`` / ``span``
    Emitted by :mod:`repro.obs.tracing` at span open and close.  Close
    events carry the full span context (``trace_id`` / ``span_id`` /
    ``parent_id``), ``start_unix``, ``duration_seconds`` and the span's
    attributes — enough to reconstruct the cross-process span tree
    offline.  An open event whose span never closes marks a crash.
``counter``
    A batch of counter deltas: ``{"counters": {name: delta}}`` — e.g. the
    per-shard trace-cache deltas a sweep worker reports.
``store``
    One content-addressed store operation:
    ``{"store": "trace"|"result", "op": "hits"|"misses"|"corrupt"|
    "writes"|"evictions", "n": 1}`` emitted by the trace/result stores.
``retry``
    One failed shard attempt (``shard``, ``attempt``, ``error``).
``checkpoint``
    A shard checkpoint written (``action: "store"``) or reused on resume
    (``action: "load"``).
``classify``
    One campaign scan: ``{"counts": {status: n}, "label": ...}`` — the
    per-class cell totals the campaign scanner derived from a run
    directory (completed / results_missing / failed / partial / missing).
``claim``
    One work-queue claim: ``{"shard", "owner", "stolen"}``.  ``stolen``
    is true when the claim displaced a stale claim left by a dead worker
    (the work-stealing path).
``requeue``
    One failed campaign work unit going back on the queue with its
    attempt budget decremented (``shard``, ``attempt``, ``error``).
``run_summary``
    A campaign worker's end-of-run summary (``label`` ``campaign.worker``:
    cells executed / regenerated, claims, failures, store deltas) — the
    authoritative source for the deterministic counters the regression
    gate compares.

All emit helpers no-op when no event sink is active, so the disabled
path stays free.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping

#: Bumped when the JSONL event layout changes incompatibly.  Schema 2
#: adds the campaign-orchestrator types (classify/claim/requeue); all
#: schema-1 records remain valid schema-2 records.
EVENT_SCHEMA = 2

#: Every event type this schema version defines.
EVENT_TYPES = (
    "span_open",
    "span",
    "counter",
    "store",
    "retry",
    "checkpoint",
    "classify",
    "claim",
    "requeue",
    "run_summary",
)

#: Fields required on every record (beyond the type-specific ones).
_COMMON_FIELDS = ("event", "ts", "pid")

#: Type-specific required fields, for :func:`validate_event`.
_REQUIRED = {
    "span_open": ("name", "span_id", "trace_id"),
    "span": ("name", "span_id", "trace_id", "duration_seconds", "start_unix"),
    "counter": ("counters",),
    "store": ("store", "op"),
    "retry": ("shard", "attempt"),
    "checkpoint": ("shard", "action"),
    "classify": ("counts",),
    "claim": ("shard", "owner"),
    "requeue": ("shard", "attempt"),
    "run_summary": ("label", "summary"),
}


# -- emit side -----------------------------------------------------------------


def _emit(event: str, **fields: object) -> None:
    from repro.obs.tracing import log_event  # deferred: tracing imports us

    log_event(event, **fields)


def emit_counter(counters: Mapping[str, int], **fields: object) -> None:
    """Emit one batch of counter deltas (skipped when all zero)."""
    deltas = {name: int(value) for name, value in counters.items() if value}
    if deltas:
        _emit("counter", counters=deltas, **fields)


def emit_store(store: str, op: str, n: int = 1) -> None:
    """Emit one store operation (``store`` is ``"trace"`` or ``"result"``)."""
    _emit("store", store=store, op=op, n=n)


def emit_retry(shard: str, attempt: int, error: str) -> None:
    """Emit one failed shard attempt."""
    _emit("retry", shard=shard, attempt=attempt, error=error)


def emit_checkpoint(shard: str, action: str, **fields: object) -> None:
    """Emit a shard checkpoint event (``action``: ``store`` or ``load``)."""
    _emit("checkpoint", shard=shard, action=action, **fields)


def emit_classify(counts: Mapping[str, int], label: str = "") -> None:
    """Emit one campaign-scan classification (per-class cell counts)."""
    _emit("classify", counts={k: int(v) for k, v in counts.items()}, label=label)


def emit_claim(shard: str, owner: str, stolen: bool = False) -> None:
    """Emit one work-queue claim (``stolen`` marks a work-stealing claim)."""
    _emit("claim", shard=shard, owner=owner, stolen=bool(stolen))


def emit_requeue(shard: str, attempt: int, error: str) -> None:
    """Emit one failed campaign work unit going back on the queue."""
    _emit("requeue", shard=shard, attempt=attempt, error=error)


def emit_run_summary(label: str, summary: Mapping) -> None:
    """Emit an end-of-run summary (a campaign worker's, chiefly)."""
    _emit("run_summary", label=label, summary=dict(summary))


# -- validation ----------------------------------------------------------------


def validate_event(record: object) -> list[str]:
    """Problems with one parsed event record (empty list = valid).

    Unknown event types are reported but records keep flowing — a newer
    writer's extra types degrade to warnings, not data loss.
    """
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    problems = []
    for field in _COMMON_FIELDS:
        if field not in record:
            problems.append(f"missing common field {field!r}")
    event = record.get("event")
    if event not in EVENT_TYPES:
        problems.append(f"unknown event type {event!r}")
        return problems
    for field in _REQUIRED[event]:
        if field not in record:
            problems.append(f"{event} event missing field {field!r}")
    return problems


# -- read / merge side ---------------------------------------------------------


def read_event_lines(path: str | os.PathLike) -> list[dict]:
    """Parse one JSONL event file, skipping malformed lines.

    A torn final line (writer killed mid-append) must never poison the
    rest of the log, so parse failures are dropped, not raised.
    """
    records: list[dict] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    records.append(record)
    except OSError:
        return []
    return records


def sidecar_paths(path: str | os.PathLike) -> list[str]:
    """Per-PID worker sidecar files of the event log at ``path``.

    Workers append to ``<path>.<pid>`` (see :mod:`repro.obs`); anything
    else sharing the prefix (e.g. ``*.tmp.<pid>`` staging files) is not a
    sidecar and is ignored.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    base = os.path.basename(path)
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    out = []
    for name in names:
        suffix = name[len(base) + 1 :]
        if name.startswith(base + ".") and suffix.isdigit():
            out.append(os.path.join(directory, name))
    return sorted(out)


def collect_worker_events(sink: str | None = None) -> int:
    """Merge per-PID worker sidecars into the main event log.

    The sweep executor calls this after its workers drain: every sidecar's
    records are appended to ``sink`` (this process's own event sink when
    None), ordered by timestamp, and the sidecar files are removed.
    Returns the number of merged records.
    """
    if sink is None:
        from repro.obs.tracing import event_sink

        sink = event_sink()
    if sink is None:
        return 0
    records: list[dict] = []
    for sidecar in sidecar_paths(sink):
        records.extend(read_event_lines(sidecar))
        try:
            os.unlink(sidecar)
        except OSError:
            pass
    if not records:
        return 0
    records.sort(key=lambda r: r.get("ts", 0.0))
    with open(sink, "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    return len(records)


def read_run_events(path: str | os.PathLike) -> list[dict]:
    """Every event of one run, timestamp-ordered.

    Reads the main log plus any leftover per-PID sidecars (a crashed run
    never merged them), so aggregation survives an unclean shutdown.
    """
    records = read_event_lines(path)
    for sidecar in sidecar_paths(path):
        records.extend(read_event_lines(sidecar))
    records.sort(key=lambda r: r.get("ts", 0.0))
    return records
