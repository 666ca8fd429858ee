"""Cross-process run aggregation: span trees, phase/worker/store rollups.

The event bus (:mod:`repro.obs.events`) leaves a flat JSONL trail spread
across a main log and per-worker sidecars.  This module turns that trail
back into answers:

* :func:`build_span_tree` — reconstruct the full span tree across
  processes from ``span`` close events (``trace_id``/``span_id``/
  ``parent_id``), flagging *orphans* (a parent that never closed or was
  lost) and *unclosed* spans (opened, never closed — a crash marker);
* :func:`aggregate_run` — the one-call telemetry report: per-phase
  wall/self time, per-worker utilization and straggler stats, the
  critical path, store-health rollups (hit rates, corruption, eviction
  pressure for the trace and result stores) and the deterministic run
  counters (shards executed/resumed, retries) from ``run_summary``
  events;
* :func:`baseline_snapshot` / :func:`regress` — reduce a report to a
  comparable baseline (phase totals + deterministic counters) and diff a
  later run against it, the perf-regression gate behind
  ``repro-stats regress``.

Everything here is read-side and offline: no function in this module
emits events or touches the registry, so aggregation never perturbs the
run it measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Bumped when the aggregate-report / baseline layout changes.
AGGREGATE_SCHEMA = 1

#: Store-operation keys rolled up per store.
_STORE_OPS = ("hits", "misses", "corrupt", "writes", "evictions")

#: Counters excluded from baselines: scheduling-dependent (which worker
#: got which shard decides cache hits; a worker may claim a cell another
#: just finished, or steal one), so run-to-run equality is not a
#: regression signal.
_VOLATILE_COUNTER_PREFIXES = ("trace_cache.", "campaign.claims", "campaign.steals")


@dataclass
class SpanNode:
    """One closed span, linked into the reconstructed tree."""

    name: str
    span_id: str
    trace_id: str
    parent_id: str | None
    pid: int
    start: float  # unix seconds
    duration: float
    attrs: dict = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class SpanTree:
    """The reconstructed cross-process span forest of one event log."""

    roots: list[SpanNode]
    #: Spans naming a parent_id that has no close event in the log.
    orphans: list[SpanNode]
    #: span_open records whose span never closed (crash markers).
    unclosed: list[dict]
    by_id: dict[str, SpanNode]

    @property
    def spans(self) -> list[SpanNode]:
        return list(self.by_id.values())

    def walk(self):
        """(depth, node) pairs, depth-first over roots then orphans, in
        start-time order — the timeline/flame iteration."""
        stack = [
            (0, node)
            for node in sorted(
                self.roots + self.orphans, key=lambda n: n.start, reverse=True
            )
        ]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in sorted(node.children, key=lambda n: n.start, reverse=True):
                stack.append((depth + 1, child))


def build_span_tree(events: list[dict]) -> SpanTree:
    """Reconstruct the span tree from parsed events (see module docstring)."""
    by_id: dict[str, SpanNode] = {}
    for record in events:
        if record.get("event") != "span" or not record.get("span_id"):
            continue
        node = SpanNode(
            name=str(record.get("name", "?")),
            span_id=str(record["span_id"]),
            trace_id=str(record.get("trace_id", "")),
            parent_id=record.get("parent_id") or None,
            pid=int(record.get("pid", 0)),
            start=float(record.get("start_unix", record.get("ts", 0.0)) or 0.0),
            duration=float(record.get("duration_seconds", 0.0) or 0.0),
            attrs=dict(record.get("attrs") or {}),
        )
        by_id[node.span_id] = node
    roots: list[SpanNode] = []
    orphans: list[SpanNode] = []
    for node in by_id.values():
        if node.parent_id is None:
            roots.append(node)
        elif node.parent_id in by_id:
            by_id[node.parent_id].children.append(node)
        else:
            orphans.append(node)
    for node in by_id.values():
        node.children.sort(key=lambda n: n.start)
    roots.sort(key=lambda n: n.start)
    orphans.sort(key=lambda n: n.start)
    closed = set(by_id)
    unclosed = [
        record
        for record in events
        if record.get("event") == "span_open" and record.get("span_id") not in closed
    ]
    return SpanTree(roots=roots, orphans=orphans, unclosed=unclosed, by_id=by_id)


# -- rollups -------------------------------------------------------------------


def phase_stats(tree: SpanTree) -> dict[str, dict]:
    """Per-phase (span name) timing rollup: wall total, self time, extrema.

    *Self* time is a span's duration minus its direct children's — the
    time a phase spent in its own code rather than delegating.  Children
    running concurrently (worker spans under ``campaign.run``) can sum
    past the parent; self time floors at zero rather than going negative.
    """
    stats: dict[str, dict] = {}
    for node in tree.by_id.values():
        entry = stats.setdefault(
            node.name,
            {
                "count": 0,
                "total_seconds": 0.0,
                "self_seconds": 0.0,
                "min_seconds": math.inf,
                "max_seconds": 0.0,
            },
        )
        entry["count"] += 1
        entry["total_seconds"] += node.duration
        child_total = sum(child.duration for child in node.children)
        entry["self_seconds"] += max(node.duration - child_total, 0.0)
        entry["min_seconds"] = min(entry["min_seconds"], node.duration)
        entry["max_seconds"] = max(entry["max_seconds"], node.duration)
    for entry in stats.values():
        if entry["min_seconds"] is math.inf:
            entry["min_seconds"] = 0.0
    return dict(sorted(stats.items()))


def _shard_spans(tree: SpanTree) -> list[SpanNode]:
    """The per-cell execution spans: every span carrying a ``shard``."""
    return [node for node in tree.by_id.values() if "shard" in node.attrs]


def _run_span(tree: SpanTree, shard: SpanNode) -> SpanNode:
    """The span a shard's worker served: its nearest ancestor in another
    process (the executor's run span), else its root (an in-process
    worker)."""
    node = shard
    while node.parent_id in tree.by_id:
        node = tree.by_id[node.parent_id]
        if node.pid != shard.pid:
            break
    return node


def worker_stats(tree: SpanTree) -> dict[str, dict]:
    """Per-worker busy time, shard count and utilization.

    Busy time sums a worker process's shard spans; utilization is that
    over the wall of the run span it served — 1.0 means the worker never
    idled while the run was open.  Stragglers show up as one worker's busy
    time dwarfing the others'.
    """
    workers: dict[str, dict] = {}
    for node in _shard_spans(tree):
        run_wall = _run_span(tree, node).duration
        entry = workers.setdefault(
            str(node.pid),
            {"spans": 0, "busy_seconds": 0.0, "run_wall_seconds": run_wall},
        )
        entry["spans"] += 1
        entry["busy_seconds"] += node.duration
        entry["run_wall_seconds"] = max(entry["run_wall_seconds"], run_wall)
    for entry in workers.values():
        wall = entry["run_wall_seconds"]
        entry["utilization"] = entry["busy_seconds"] / wall if wall > 0 else 0.0
    return dict(sorted(workers.items()))


def straggler_stats(tree: SpanTree, top: int = 5) -> dict:
    """Slowest shard spans plus dispersion stats — the "which shard held
    the run hostage" answer."""
    spans = _shard_spans(tree)
    if not spans:
        return {"count": 0, "mean_seconds": 0.0, "max_seconds": 0.0, "slowest": []}
    durations = [node.duration for node in spans]
    mean = sum(durations) / len(durations)
    slowest = sorted(spans, key=lambda n: n.duration, reverse=True)[:top]
    return {
        "count": len(spans),
        "mean_seconds": mean,
        "max_seconds": max(durations),
        "max_over_mean": (max(durations) / mean) if mean > 0 else 0.0,
        "slowest": [
            {
                "name": node.name,
                "shard": node.attrs.get("shard"),
                "pid": node.pid,
                "duration_seconds": node.duration,
            }
            for node in slowest
        ],
    }


def critical_path(tree: SpanTree) -> list[dict]:
    """The chain of spans that determined the run's end time.

    Starting from the latest-ending root, descend at each level into the
    child whose work finished last — the span the parent was
    (transitively) waiting on.  A child's work ends at the latest end of
    any leaf beneath it, so a worker that idled polling the queue past the
    straggler it waited for does not take the path.  Rows carry start
    offsets relative to the root.
    """
    candidates = tree.roots + tree.orphans
    if not candidates:
        return []
    work_ends: dict[str, float] = {}

    def work_end(node: SpanNode) -> float:
        if node.span_id not in work_ends:
            work_ends[node.span_id] = max(
                (work_end(child) for child in node.children), default=node.end
            )
        return work_ends[node.span_id]

    node = max(candidates, key=lambda n: n.end)
    t0 = node.start
    path = []
    while True:
        path.append(
            {
                "name": node.name,
                "shard": node.attrs.get("shard"),
                "pid": node.pid,
                "start_offset_seconds": node.start - t0,
                "duration_seconds": node.duration,
            }
        )
        if not node.children:
            return path
        node = max(node.children, key=work_end)


def store_rollup(events: list[dict]) -> dict[str, dict]:
    """Per-store operation totals and health ratios from ``store`` events.

    ``hit_rate`` is hits/(hits+misses) (None before any lookup);
    ``eviction_pressure`` is evictions/writes — sustained values near 1.0
    mean the store is thrashing at its capacity limit.
    """
    stores: dict[str, dict] = {}
    for record in events:
        if record.get("event") != "store":
            continue
        entry = stores.setdefault(
            str(record.get("store", "?")), dict.fromkeys(_STORE_OPS, 0)
        )
        op = record.get("op")
        if op in _STORE_OPS:
            entry[op] += int(record.get("n", 1))
    for entry in stores.values():
        lookups = entry["hits"] + entry["misses"]
        entry["hit_rate"] = entry["hits"] / lookups if lookups else None
        entry["eviction_pressure"] = (
            entry["evictions"] / entry["writes"] if entry["writes"] else 0.0
        )
    return dict(sorted(stores.items()))


def counter_totals(events: list[dict]) -> dict[str, int]:
    """Flat deterministic counters of one run.

    ``counter`` event deltas are summed; ``run_summary`` events contribute
    shard counts, retries and store totals.  A ``campaign.worker`` summary
    reports its cells — executed, regenerated, failed attempts — which
    count as ``shards.executed``, ``shards.regenerated`` and ``retries``,
    so a run's totals sum over every worker that served it.
    """
    totals: dict[str, int] = {}

    def add(name: str, value: int) -> None:
        totals[name] = totals.get(name, 0) + int(value)

    for record in events:
        event = record.get("event")
        if event == "counter":
            for name, value in (record.get("counters") or {}).items():
                add(name, value)
        elif event == "run_summary":
            summary = record.get("summary") or {}
            shards = summary.get("shards") or {}
            retries = summary.get("retries", 0)
            if record.get("label") == "campaign.worker":
                cells = summary.get("cells") or {}
                shards = {
                    "executed": cells.get("cells_executed", 0),
                    "regenerated": cells.get("cells_regenerated", 0),
                }
                retries = cells.get("failures", 0)
            for key in ("executed", "resumed", "regenerated", "incomplete"):
                add(f"shards.{key}", shards.get(key, 0))
            add("retries", retries)
            for store in ("trace_store", "result_store"):
                for op, value in (summary.get(store) or {}).items():
                    add(f"{store}.{op}", value)
    return dict(sorted(totals.items()))


#: Per-worker cell counters a campaign worker reports in its run summary.
_CAMPAIGN_CELL_KEYS = (
    "cells_executed",
    "cells_regenerated",
    "claims",
    "steals",
    "requeues",
    "failures",
)


def campaign_rollup(events: list[dict]) -> dict:
    """Campaign telemetry rollup: classifications, claims, worker loads.

    Consumes the campaign event types (``classify``/``claim``/``requeue``)
    plus every ``campaign.worker`` run summary.  ``totals`` sums the
    per-worker cell counters — on a correct campaign,
    ``totals["cells_executed"]`` across all the campaign's worker logs
    equals the number of planned executions exactly (the zero-duplication
    invariant the CI drill asserts).  Claim/steal/requeue event counts are
    tracked independently of the worker summaries, so a worker that
    crashed before summarizing still leaves its claims visible.
    """
    classifications: list[dict] = []
    claim_events = 0
    steal_events = 0
    requeue_events = 0
    workers: dict[str, dict] = {}
    for record in events:
        event = record.get("event")
        if event == "classify":
            classifications.append(
                {
                    "label": str(record.get("label", "")),
                    "counts": {
                        str(k): int(v)
                        for k, v in (record.get("counts") or {}).items()
                    },
                }
            )
        elif event == "claim":
            claim_events += 1
            if record.get("stolen"):
                steal_events += 1
        elif event == "requeue":
            requeue_events += 1
        elif event == "run_summary" and record.get("label") == "campaign.worker":
            summary = record.get("summary") or {}
            owner = str(summary.get("owner") or record.get("pid", "?"))
            cells = summary.get("cells") or {}
            entry = workers.setdefault(
                owner,
                {**dict.fromkeys(_CAMPAIGN_CELL_KEYS, 0), "status": ""},
            )
            for key in _CAMPAIGN_CELL_KEYS:
                entry[key] += int(cells.get(key, 0))
            entry["status"] = str(summary.get("status", ""))
    totals = {
        key: sum(entry[key] for entry in workers.values())
        for key in _CAMPAIGN_CELL_KEYS
    }
    return {
        "schema": AGGREGATE_SCHEMA,
        "classifications": classifications,
        "claim_events": claim_events,
        "steal_events": steal_events,
        "requeue_events": requeue_events,
        "workers": dict(sorted(workers.items())),
        "totals": totals,
    }


#: Span names the prediction service emits (see :mod:`repro.service`).
_SERVICE_SPANS = (
    "service.request",
    "service.submit",
    "service.render",
    "service.attribution",
)


def service_rollup(events: list[dict]) -> dict:
    """Serving-layer telemetry: request latencies, renders, lifecycle.

    Consumes the ``service.*`` spans the daemon opens per dispatched
    request (plus its ``service_start``/``service_stop`` lifecycle events)
    and reports count / total / max duration per span name, with
    ``service.request`` broken out by method + path.  Requests answered
    from the daemon's memory of settled replies open no span; the daemon
    logs their count as a ``counter`` event when it stops, summed here as
    ``response_cache_hits``.  Because campaign worker spans parent into
    request spans, the *absence* of ``shard`` spans under a trace here is
    the zero-recompute proof for cached fetches — the benchmark checks
    exactly that via counters.
    """
    by_name: dict[str, dict] = {}
    requests: dict[str, dict] = {}
    starts = 0
    stops = 0
    cache_hits = 0
    for record in events:
        event = record.get("event")
        if event == "service_start":
            starts += 1
            continue
        if event == "service_stop":
            stops += 1
            continue
        if event == "counter":
            counters = record.get("counters") or {}
            cache_hits += int(counters.get("service.response_cache_hits", 0))
            continue
        if event != "span":
            continue
        name = str(record.get("name", ""))
        if name not in _SERVICE_SPANS:
            continue
        duration = float(record.get("duration_seconds", 0.0))
        entry = by_name.setdefault(
            name, {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
        )
        entry["count"] += 1
        entry["total_seconds"] += duration
        entry["max_seconds"] = max(entry["max_seconds"], duration)
        if name == "service.request":
            attrs = record.get("attrs") or {}
            key = f"{attrs.get('method', '?')} {attrs.get('path', '?')}"
            req = requests.setdefault(
                key, {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
            )
            req["count"] += 1
            req["total_seconds"] += duration
            req["max_seconds"] = max(req["max_seconds"], duration)
    return {
        "schema": AGGREGATE_SCHEMA,
        "starts": starts,
        "stops": stops,
        "spans": dict(sorted(by_name.items())),
        "requests": dict(sorted(requests.items())),
        "response_cache_hits": cache_hits,
    }


def aggregate_run(events: list[dict]) -> dict:
    """The full telemetry report of one event log, as a JSON-able dict."""
    tree = build_span_tree(events)
    spans = tree.spans
    wall = 0.0
    if spans:
        t0 = min(node.start for node in spans)
        wall = max(node.end for node in spans) - t0
    return {
        "schema": AGGREGATE_SCHEMA,
        "trace_ids": sorted({node.trace_id for node in spans if node.trace_id}),
        "wall_seconds": wall,
        "spans": {
            "total": len(spans),
            "orphans": [node.name for node in tree.orphans],
            "unclosed": [str(record.get("name", "?")) for record in tree.unclosed],
        },
        "roots": [
            {"name": node.name, "pid": node.pid, "duration_seconds": node.duration}
            for node in tree.roots
        ],
        "phases": phase_stats(tree),
        "workers": worker_stats(tree),
        "stragglers": straggler_stats(tree),
        "critical_path": critical_path(tree),
        "stores": store_rollup(events),
        "counters": counter_totals(events),
    }


# -- regression gate -----------------------------------------------------------


def baseline_snapshot(aggregate: dict) -> dict:
    """Reduce a telemetry report to the comparable baseline: phase wall
    totals plus the deterministic counters (scheduling-dependent ones,
    like trace-cache hits, are excluded)."""
    counters = {
        name: value
        for name, value in (aggregate.get("counters") or {}).items()
        if not name.startswith(_VOLATILE_COUNTER_PREFIXES)
    }
    return {
        "schema": AGGREGATE_SCHEMA,
        "wall_seconds": aggregate.get("wall_seconds", 0.0),
        "phases": {
            name: stats["total_seconds"]
            for name, stats in (aggregate.get("phases") or {}).items()
        },
        "counters": counters,
    }


def regress(
    aggregate: dict,
    baseline: dict,
    threshold: float = 0.25,
    counters_only: bool = False,
) -> list[dict]:
    """Violations of ``aggregate`` against ``baseline`` (empty = pass).

    Timings gate on *relative slowdown*: run wall and each baseline
    phase's total may grow by at most ``threshold`` (0.25 = 25%); phases
    new in the current run are ignored (they had no budget), a baseline
    phase missing from the run is reported (the run did less work than
    the baseline measured).  Counters gate on exact equality for every
    key the baseline recorded — on a pinned grid they are deterministic,
    so *any* drift (extra retries, store misses, corrupt entries) is a
    finding.  ``counters_only`` skips the timing checks for
    machine-independent gating against a committed baseline.
    """
    violations: list[dict] = []
    if not counters_only:
        allowed = 1.0 + threshold
        base_wall = float(baseline.get("wall_seconds") or 0.0)
        cur_wall = float(aggregate.get("wall_seconds") or 0.0)
        if base_wall > 0 and cur_wall > base_wall * allowed:
            violations.append(
                {
                    "kind": "wall",
                    "name": "run",
                    "baseline": base_wall,
                    "current": cur_wall,
                    "ratio": cur_wall / base_wall,
                }
            )
        phases = aggregate.get("phases") or {}
        for name, base_total in sorted((baseline.get("phases") or {}).items()):
            current = phases.get(name)
            if current is None:
                violations.append(
                    {
                        "kind": "phase-missing",
                        "name": name,
                        "baseline": base_total,
                        "current": None,
                        "ratio": None,
                    }
                )
                continue
            cur_total = float(current["total_seconds"])
            if base_total > 0 and cur_total > base_total * allowed:
                violations.append(
                    {
                        "kind": "phase",
                        "name": name,
                        "baseline": base_total,
                        "current": cur_total,
                        "ratio": cur_total / base_total,
                    }
                )
    counters = aggregate.get("counters") or {}
    for name, base_value in sorted((baseline.get("counters") or {}).items()):
        current = counters.get(name, 0)
        if current != base_value:
            violations.append(
                {
                    "kind": "counter",
                    "name": name,
                    "baseline": base_value,
                    "current": current,
                    "ratio": None,
                }
            )
    return violations
