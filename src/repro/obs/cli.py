"""``repro-stats`` — render and diff run manifests and telemetry reports.

Usage::

    repro-stats show results/table2.manifest.json
    repro-stats diff results/figure1.manifest.json other/figure1.manifest.json
    repro-stats timeline run/events.jsonl
    repro-stats flame run/events.jsonl
    repro-stats critical-path run/events.jsonl
    repro-stats stores run/events.jsonl
    repro-stats campaign run/worker1.jsonl run/worker2.jsonl
    repro-stats service service-data/events.jsonl
    repro-stats regress run/events.jsonl --baseline results/obs_baseline.json

``show`` prints a manifest's configuration, environment, per-phase wall
times, metrics tables and top hard-to-predict-branch tables; ``diff``
compares two manifests field by field (config, environment, output digest,
phase timings, counters) — the quick answer to "why do these two
``results/*.txt`` differ?".

The telemetry subcommands consume the JSONL event log a run leaves behind
when ``REPRO_LOG`` is set (see :mod:`repro.obs` for the layout):
``timeline`` draws every span of the cross-process tree against the run's
wall clock, ``flame`` merges spans by call path into an ASCII flamegraph,
``critical-path`` prints the chain of spans that determined the run's end
time, ``stores`` rolls up trace/result-store health, and ``regress``
gates a run against a stored baseline snapshot — nonzero exit past the
threshold.  All five accept ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.common import settings
from repro.obs.aggregate import (
    SpanNode,
    aggregate_run,
    baseline_snapshot,
    build_span_tree,
    campaign_rollup,
    regress,
    service_rollup,
)
from repro.obs.events import read_run_events
from repro.obs.manifest import diff_manifests, load_manifest
from repro.obs.registry import render_snapshot


def _kv_rows(mapping: dict) -> list[tuple[str, str]]:
    return [(key, str(value)) for key, value in sorted(mapping.items())]


def render_manifest(manifest: dict) -> str:
    """One manifest as aligned text tables."""
    from repro.harness.report import render_table

    target = manifest.get("target", "?")
    header = [
        ("manifest_version", manifest.get("manifest_version")),
        ("duration_seconds", f"{manifest.get('duration_seconds', 0.0):.3f}"),
    ]
    if manifest.get("trace_id"):
        header.append(("trace_id", manifest["trace_id"]))
    sections = [
        render_table(f"Run manifest: {target}", ["field", "value"], header),
        render_table("Config", ["key", "value"], _kv_rows(manifest.get("config") or {})),
        render_table(
            "Environment", ["key", "value"], _kv_rows(manifest.get("environment") or {})
        ),
        render_table(
            "Output", ["key", "value"], _kv_rows(manifest.get("output") or {})
        ),
    ]
    phases = manifest.get("phases") or {}
    if phases:
        rows = [
            (
                name,
                info.get("count", 0),
                f"{info.get('total_seconds', 0.0):.3f}",
                f"{1e3 * info.get('mean_seconds', 0.0):.2f}",
            )
            for name, info in sorted(phases.items())
        ]
        sections.append(
            render_table("Phases", ["phase", "count", "total s", "mean ms"], rows)
        )
    metrics = manifest.get("metrics") or {}
    if metrics:
        sections.append(render_snapshot(metrics))
    return "\n\n".join(sections)


def render_diff(rows: list[dict]) -> str:
    """A :func:`diff_manifests` result as one aligned table."""
    from repro.harness.report import render_table

    if not rows:
        return "Manifests match (config, environment, output, phases, counters)."
    return render_table(
        "Manifest differences",
        ["section", "key", "a", "b"],
        [(row["section"], row["key"], row["a"], row["b"]) for row in rows],
    )


# -- telemetry renderings ------------------------------------------------------

_BAR_WIDTH = 40


def render_timeline(events: list[dict]) -> str:
    """Every span against the run's wall clock, one bar per span.

    Bars are positioned on a shared time axis (run start = column 0), so
    worker shards running concurrently show as overlapping bars and a
    straggler sticks out as the bar that keeps going after the others
    stop.  Indentation mirrors tree depth across processes.
    """
    tree = build_span_tree(events)
    spans = tree.spans
    if not spans:
        return "No spans in event log."
    t0 = min(node.start for node in spans)
    wall = max(node.end for node in spans) - t0 or 1.0
    lines = [
        f"Timeline  wall={wall:.3f}s  spans={len(spans)}"
        f"  orphans={len(tree.orphans)}  unclosed={len(tree.unclosed)}"
    ]
    for depth, node in tree.walk():
        lead = int(_BAR_WIDTH * (node.start - t0) / wall)
        width = max(1, round(_BAR_WIDTH * node.duration / wall))
        bar = " " * lead + "#" * min(width, _BAR_WIDTH - lead)
        label = "  " * depth + node.name
        shard = node.attrs.get("shard")
        if shard:
            label += f" [{shard}]"
        lines.append(
            f"  |{bar:<{_BAR_WIDTH}}| {node.duration:8.3f}s"
            f"  pid={node.pid:<8d} {label}"
        )
    return "\n".join(lines)


def _merge_flame(nodes: list[SpanNode]) -> dict[str, dict]:
    """Merge sibling spans by name: {name: {"total", "count", "children"}}."""
    merged: dict[str, dict] = {}
    for node in nodes:
        entry = merged.setdefault(node.name, {"total": 0.0, "count": 0, "nodes": []})
        entry["total"] += node.duration
        entry["count"] += 1
        entry["nodes"].extend(node.children)
    return merged


def render_flame(events: list[dict]) -> str:
    """ASCII flamegraph: spans merged by call path, widths ∝ wall share.

    Unlike ``timeline`` (every span, real clock positions), ``flame``
    answers "where does the time go *by phase*": all spans with the same
    name under the same parent path collapse into one row whose bar width
    is its share of the root's wall time.
    """
    tree = build_span_tree(events)
    roots = tree.roots + tree.orphans
    if not roots:
        return "No spans in event log."
    total = sum(node.duration for node in roots) or 1.0
    lines = [f"Flame  root total={total:.3f}s (bar width = share of root wall)"]

    def emit(nodes: list[SpanNode], depth: int) -> None:
        merged = _merge_flame(nodes)
        for name, entry in sorted(
            merged.items(), key=lambda item: item[1]["total"], reverse=True
        ):
            share = entry["total"] / total
            # Concurrent siblings (worker shards) can sum past the root's
            # wall; the percentage says so, the bar clamps to full width.
            bar = "█" * max(1, min(_BAR_WIDTH, round(_BAR_WIDTH * share)))
            lines.append(
                f"  {entry['total']:8.3f}s {100 * share:5.1f}%"
                f"  {'  ' * depth}{name} ×{entry['count']}  {bar}"
            )
            emit(entry["nodes"], depth + 1)

    emit(list(roots), 0)
    return "\n".join(lines)


def render_critical_path(path: list[dict]) -> str:
    """The critical-path chain as one aligned table."""
    from repro.harness.report import render_table

    if not path:
        return "No spans in event log."
    rows = [
        (
            step["name"] + (f" [{step['shard']}]" if step.get("shard") else ""),
            step["pid"],
            f"{step['start_offset_seconds']:.3f}",
            f"{step['duration_seconds']:.3f}",
        )
        for step in path
    ]
    return render_table(
        "Critical path (the span chain that determined the run's end time)",
        ["span", "pid", "start +s", "duration s"],
        rows,
    )


def render_stores(stores: dict[str, dict]) -> str:
    """Store-health rollup as one aligned table."""
    from repro.harness.report import render_table

    if not stores:
        return "No store events in event log."
    rows = []
    for name, entry in stores.items():
        hit_rate = entry.get("hit_rate")
        rows.append(
            (
                name,
                entry.get("hits", 0),
                entry.get("misses", 0),
                "-" if hit_rate is None else f"{100 * hit_rate:.1f}%",
                entry.get("writes", 0),
                entry.get("evictions", 0),
                entry.get("corrupt", 0),
            )
        )
    return render_table(
        "Store health",
        ["store", "hits", "misses", "hit rate", "writes", "evictions", "corrupt"],
        rows,
    )


def render_campaign(rollup: dict) -> str:
    """Campaign rollup as aligned tables (classifications + worker loads)."""
    from repro.harness.report import render_table

    sections = []
    class_rows = [
        (
            entry["label"] or "-",
            sum(entry["counts"].values()),
            entry["counts"].get("completed", 0),
            entry["counts"].get("results_missing", 0),
            entry["counts"].get("failed", 0),
            entry["counts"].get("partial", 0),
            entry["counts"].get("missing", 0),
        )
        for entry in rollup.get("classifications", [])
    ]
    if class_rows:
        sections.append(
            render_table(
                "Campaign classifications (one row per scan)",
                ["label", "cells", "completed", "results", "failed", "partial", "missing"],
                class_rows,
            )
        )
    worker_rows = [
        (
            owner,
            entry.get("status") or "-",
            entry["cells_executed"],
            entry["cells_regenerated"],
            entry["claims"],
            entry["steals"],
            entry["requeues"],
            entry["failures"],
        )
        for owner, entry in rollup.get("workers", {}).items()
    ]
    totals = rollup.get("totals", {})
    if worker_rows:
        worker_rows.append(
            (
                "TOTAL",
                "-",
                totals.get("cells_executed", 0),
                totals.get("cells_regenerated", 0),
                totals.get("claims", 0),
                totals.get("steals", 0),
                totals.get("requeues", 0),
                totals.get("failures", 0),
            )
        )
        sections.append(
            render_table(
                "Campaign workers",
                ["owner", "status", "executed", "regenerated", "claims", "steals",
                 "requeues", "failures"],
                worker_rows,
            )
        )
    sections.append(
        f"claim events: {rollup.get('claim_events', 0)}"
        f"  steals: {rollup.get('steal_events', 0)}"
        f"  requeues: {rollup.get('requeue_events', 0)}"
    )
    if not class_rows and not worker_rows:
        return "No campaign events in event log(s)."
    return "\n\n".join(sections)


def render_service(rollup: dict) -> str:
    """Service rollup as aligned tables (per-route latencies), then the
    count of answers from memory and the lifecycle line."""
    from repro.harness.report import render_table

    sections = []
    span_rows = [
        (
            name,
            entry["count"],
            f"{entry['total_seconds']:.3f}",
            f"{entry['total_seconds'] / entry['count']:.4f}" if entry["count"] else "-",
            f"{entry['max_seconds']:.4f}",
        )
        for name, entry in rollup.get("spans", {}).items()
    ]
    if span_rows:
        sections.append(
            render_table(
                "Service spans",
                ["span", "count", "total_s", "mean_s", "max_s"],
                span_rows,
            )
        )
    request_rows = [
        (
            key,
            entry["count"],
            f"{entry['total_seconds'] / entry['count']:.4f}" if entry["count"] else "-",
            f"{entry['max_seconds']:.4f}",
        )
        for key, entry in rollup.get("requests", {}).items()
    ]
    if request_rows:
        sections.append(
            render_table(
                "Requests by route",
                ["route", "count", "mean_s", "max_s"],
                request_rows,
            )
        )
    cache_hits = rollup.get("response_cache_hits", 0)
    sections.append(
        f"answered from memory (settled replies, no span): {cache_hits}\n"
        f"daemon starts: {rollup.get('starts', 0)}  stops: {rollup.get('stops', 0)}"
    )
    if not span_rows and not request_rows and not cache_hits:
        return "No service events in event log(s)."
    return "\n\n".join(sections)


def render_regress(violations: list[dict], threshold: float) -> str:
    """Regression verdict as one aligned table."""
    from repro.harness.report import render_table

    if not violations:
        return f"No regressions (threshold {100 * threshold:.0f}%)."
    rows = [
        (
            row["kind"],
            row["name"],
            "-" if row["baseline"] is None else f"{row['baseline']:.3f}"
            if isinstance(row["baseline"], float)
            else row["baseline"],
            "-" if row["current"] is None else f"{row['current']:.3f}"
            if isinstance(row["current"], float)
            else row["current"],
            "-" if row["ratio"] is None else f"{row['ratio']:.2f}x",
        )
        for row in violations
    ]
    return render_table(
        f"REGRESSIONS (threshold {100 * threshold:.0f}%)",
        ["kind", "name", "baseline", "current", "ratio"],
        rows,
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-stats``."""
    parser = argparse.ArgumentParser(
        prog="repro-stats",
        description="Render and diff run manifests and telemetry event logs",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    show = subparsers.add_parser("show", help="render one or more manifests")
    show.add_argument("manifests", nargs="+", help="manifest JSON paths")
    diff = subparsers.add_parser("diff", help="compare two manifests")
    diff.add_argument("manifest_a")
    diff.add_argument("manifest_b")
    for name, help_text in (
        ("timeline", "draw every span of a run against the wall clock"),
        ("flame", "ASCII flamegraph: spans merged by call path"),
        ("critical-path", "the span chain that determined the run's end time"),
        ("stores", "trace/result-store health rollup"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("events", help="JSONL event log (REPRO_LOG path)")
        sub.add_argument("--json", action="store_true", help="emit JSON instead")
    camp = subparsers.add_parser(
        "campaign",
        help="campaign rollup: classifications, claims/steals, worker loads",
    )
    camp.add_argument(
        "events",
        nargs="+",
        help="one or more JSONL event logs (e.g. every worker's REPRO_LOG)",
    )
    camp.add_argument("--json", action="store_true", help="emit JSON instead")
    serv = subparsers.add_parser(
        "service",
        help="serving-layer rollup: per-route latencies, renders, answers "
        "from memory, lifecycle",
    )
    serv.add_argument(
        "events",
        nargs="+",
        help="one or more JSONL event logs (the daemon's REPRO_LOG + sidecars)",
    )
    serv.add_argument("--json", action="store_true", help="emit JSON instead")
    reg = subparsers.add_parser(
        "regress", help="gate a run's timings/counters against a baseline"
    )
    reg.add_argument("events", help="JSONL event log (REPRO_LOG path)")
    reg.add_argument("--baseline", required=True, help="baseline snapshot JSON")
    reg.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed relative slowdown (0.25 = 25%%)",
    )
    reg.add_argument(
        "--counters-only",
        action="store_true",
        help="skip timing gates (machine-independent CI mode)",
    )
    reg.add_argument(
        "--write-baseline",
        action="store_true",
        help="write this run's snapshot to --baseline and exit 0",
    )
    reg.add_argument("--json", action="store_true", help="emit JSON instead")
    args = parser.parse_args(argv)
    settings.check_at_start(parser.prog)

    if args.command == "show":
        for path in args.manifests:
            print(render_manifest(load_manifest(path)))
            print()
        return 0
    if args.command == "diff":
        rows = diff_manifests(
            load_manifest(args.manifest_a), load_manifest(args.manifest_b)
        )
        print(render_diff(rows))
        print()
        return 0

    if args.command == "service":
        events = []
        for path in args.events:
            events.extend(read_run_events(path))
        events.sort(key=lambda r: r.get("ts", 0.0))
        rollup = service_rollup(events)
        if args.json:
            print(json.dumps(rollup, indent=2, sort_keys=True))
        else:
            print(render_service(rollup))
        return 0

    if args.command == "campaign":
        # A campaign's trail is spread over every worker's log; merge them.
        events = []
        for path in args.events:
            events.extend(read_run_events(path))
        events.sort(key=lambda r: r.get("ts", 0.0))
        rollup = campaign_rollup(events)
        if args.json:
            print(json.dumps(rollup, indent=2, sort_keys=True))
        else:
            print(render_campaign(rollup))
        return 0

    events = read_run_events(args.events)
    if args.command == "timeline":
        if args.json:
            print(json.dumps(aggregate_run(events), indent=2, sort_keys=True))
        else:
            print(render_timeline(events))
        return 0
    if args.command == "flame":
        if args.json:
            print(
                json.dumps(
                    aggregate_run(events)["phases"], indent=2, sort_keys=True
                )
            )
        else:
            print(render_flame(events))
        return 0
    if args.command == "critical-path":
        aggregate = aggregate_run(events)
        if args.json:
            print(json.dumps(aggregate["critical_path"], indent=2, sort_keys=True))
        else:
            print(render_critical_path(aggregate["critical_path"]))
        return 0
    if args.command == "stores":
        aggregate = aggregate_run(events)
        if args.json:
            print(json.dumps(aggregate["stores"], indent=2, sort_keys=True))
        else:
            print(render_stores(aggregate["stores"]))
        return 0

    # regress
    aggregate = aggregate_run(events)
    if args.write_baseline:
        snapshot = baseline_snapshot(aggregate)
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"Baseline written: {args.baseline}")
        return 0
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    violations = regress(
        aggregate, baseline, threshold=args.threshold, counters_only=args.counters_only
    )
    if args.json:
        print(
            json.dumps(
                {"threshold": args.threshold, "violations": violations},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(render_regress(violations, args.threshold))
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
