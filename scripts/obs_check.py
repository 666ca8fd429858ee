"""End-to-end check of the distributed-tracing telemetry, as CI runs it.

Drives the real ``repro-figures --config`` path over a small accuracy grid
(2 families x 2 budgets x 2 benchmarks at 5% scale) with ``--jobs 2`` and
``REPRO_LOG`` pointed at a run-local event file:

1. parallel sweep with tracing on — the aggregated span tree must be
   *complete*: no orphan spans, no unclosed spans, exactly one
   ``campaign.run`` span, every worker ``campaign.shard`` span a
   descendant of it (under its worker's ``campaign.worker`` span) with a
   shared trace id, at least two worker PIDs, and all per-PID sidecar
   files merged back into the main log;
2. reporting surfaces — ``repro-stats timeline`` and ``critical-path``
   must render, and the aggregate's wall time must reproduce the root
   sweep span's duration within rounding;
3. ``repro-stats regress --counters-only`` against the committed baseline
   (``results/obs_baseline.json``) — the machine-independent gate: shard
   counts (summed over the workers' run summaries), retries and store
   totals must match exactly;
4. synthetic-slowdown drill — re-run the same grid with
   ``REPRO_CAMPAIGN_SLOW_CELL`` injecting a straggler scaled to the
   measured baseline wall, and ``repro-stats regress`` against an in-job
   timing baseline **must** exit nonzero (the perf-regression gate
   actually gates) and name the straggler in the report;
5. store-health rollup — a cold-then-warm run against ``--result-store``
   must show the warm run's hits in ``repro-stats stores``.

Exit status 0 means every stage behaved.  ``--stats-out PATH`` writes the
full telemetry report of stage 1 plus per-stage facts (CI uploads it as
an artifact).  ``--write-baseline`` regenerates the committed baseline
from stage 1's counters instead of checking (run after changing the grid
or the counter schema).

Usage::

    PYTHONPATH=src python scripts/obs_check.py [--stats-out stats.json]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "results" / "obs_baseline.json"

#: Small but parallel-shaped: 8 shards across 2 workers at 5% scale.
CHECK_ENV = {
    "REPRO_SCALE": "0.05",
    "REPRO_BENCHMARKS": "gcc,eon",
}
TARGET = "obs_check_sweep"
SWEEP_CONFIG = {
    "schema": 1,
    "target": TARGET,
    "mode": "sweep",
    "title": "obs-check: telemetry exercise grid",
    "grids": [
        {
            "kind": "accuracy",
            "families": ["gshare", "bimodal"],
            "budgets": [2048, 8192],
        }
    ],
}
SHARDS = 2 * 2 * 2  # families x budgets x benchmarks


def run_cli(module: str, args: list[str], extra_env: dict[str, str] | None = None):
    env = dict(os.environ, **CHECK_ENV)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_LOG", None)
    env.pop("REPRO_LOG_OWNER_PID", None)
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


def fail(message: str, proc=None) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    if proc is not None:
        print(f"--- exit {proc.returncode} stderr ---\n{proc.stderr}", file=sys.stderr)
    raise SystemExit(1)


def run_sweep(config_path: Path, log: Path, out_dir: Path, extra_env=None):
    proc = run_cli(
        "repro.harness.cli",
        ["--config", str(config_path), "--jobs", "2", "--output-dir", str(out_dir)],
        {"REPRO_LOG": str(log), **(extra_env or {})},
    )
    if proc.returncode != 0:
        fail("traced parallel sweep failed", proc)
    return proc


def aggregate_of(log: Path) -> dict:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.obs.aggregate import aggregate_run
    from repro.obs.events import read_run_events, validate_event

    events = read_run_events(log)
    bad = [p for e in events for p in validate_event(e)]
    if bad:
        fail(f"invalid events in {log}: {bad[:5]}")
    return aggregate_run(events)


def check_span_tree(log: Path) -> dict:
    """Stage 1 assertions: the cross-process span tree is complete."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.obs.aggregate import build_span_tree
    from repro.obs.events import read_run_events

    if list(log.parent.glob(f"{log.name}.*")):
        fail("worker sidecar files were not merged back into the main log")
    tree = build_span_tree(read_run_events(log))
    if tree.orphans:
        fail(f"orphan spans in trace: {[n.name for n in tree.orphans]}")
    if tree.unclosed:
        fail(f"unclosed spans in trace: {[r.get('name') for r in tree.unclosed]}")
    runs = [n for n in tree.by_id.values() if n.name == "campaign.run"]
    if len(runs) != 1:
        fail(f"expected exactly one campaign.run span, found {len(runs)}")
    run = runs[0]
    shards = [n for n in tree.by_id.values() if n.name == "campaign.shard"]
    if len(shards) != SHARDS:
        fail(f"expected {SHARDS} worker shard spans, found {len(shards)}")

    def descends_from_run(node) -> bool:
        while node.parent_id in tree.by_id:
            node = tree.by_id[node.parent_id]
            if node is run:
                return True
        return False

    stray = [n.span_id for n in shards if not descends_from_run(n)]
    if stray:
        fail(f"{len(stray)} worker shard spans do not descend from the run span")
    off_trace = [n.span_id for n in shards if n.trace_id != run.trace_id]
    if off_trace:
        fail(f"{len(off_trace)} worker spans on a foreign trace id")
    worker_pids = {n.pid for n in shards}
    if run.pid in worker_pids or len(worker_pids) < 2:
        fail(f"expected >=2 distinct worker PIDs, saw {sorted(worker_pids)}")
    return {
        "spans": len(tree.by_id),
        "worker_pids": sorted(worker_pids),
        "run_wall_seconds": run.duration,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats-out", default=None, metavar="PATH")
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=f"regenerate {BASELINE.relative_to(REPO_ROOT)} instead of checking",
    )
    args = parser.parse_args(argv)
    stats: dict[str, object] = {}

    with tempfile.TemporaryDirectory(prefix="obs-check-") as tmp:
        tmp_path = Path(tmp)
        config_path = tmp_path / f"{TARGET}.json"
        config_path.write_text(json.dumps(SWEEP_CONFIG, indent=2))
        log = tmp_path / "events.jsonl"

        print(f"[1/5] parallel sweep ({SHARDS} shards, --jobs 2) with REPRO_LOG")
        run_sweep(config_path, log, tmp_path / "out")
        stats["tree"] = check_span_tree(log)
        agg = aggregate_of(log)
        stats["aggregate"] = agg
        print(
            f"      complete tree: {stats['tree']['spans']} spans, "
            f"workers {stats['tree']['worker_pids']}, no orphans"
        )

        print("[2/5] timeline / critical-path reproduce the run's wall time")
        for sub in ("timeline", "flame", "critical-path", "stores"):
            proc = run_cli("repro.obs.cli", [sub, str(log)])
            if proc.returncode != 0:
                fail(f"repro-stats {sub} failed", proc)
        run_wall = stats["tree"]["run_wall_seconds"]
        root_total = sum(r["duration_seconds"] for r in agg["roots"])
        if not (run_wall <= agg["wall_seconds"] <= root_total * 1.05):
            fail(
                f"aggregate wall {agg['wall_seconds']:.3f}s does not bracket the "
                f"run span ({run_wall:.3f}s) under the root spans ({root_total:.3f}s)"
            )
        sweep_total = agg["phases"]["accuracy_sweep"]["total_seconds"]
        if not (run_wall <= sweep_total <= agg["wall_seconds"] * 1.05):
            fail(
                f"accuracy_sweep phase total {sweep_total:.3f}s inconsistent with "
                f"run span {run_wall:.3f}s / wall {agg['wall_seconds']:.3f}s"
            )
        path_names = [step["name"] for step in agg["critical_path"]]
        # The figures CLI adds a target-level root span above the sweep.
        if path_names[-4:] != [
            "accuracy_sweep", "campaign.run", "campaign.worker", "campaign.shard",
        ]:
            fail(f"critical path has unexpected shape: {path_names}")
        print(f"      wall {agg['wall_seconds']:.3f}s, critical path {path_names}")

        if args.write_baseline:
            sys.path.insert(0, str(REPO_ROOT / "src"))
            from repro.obs.aggregate import baseline_snapshot

            snapshot = baseline_snapshot(agg)
            # Committed baseline gates counters only; zero the machine-local
            # timings so nobody mistakes them for comparable numbers.
            snapshot["wall_seconds"] = 0.0
            snapshot["phases"] = {}
            BASELINE.parent.mkdir(parents=True, exist_ok=True)
            BASELINE.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
            print(f"baseline written: {BASELINE}")
            return 0

        print("[3/5] regress --counters-only against the committed baseline")
        proc = run_cli(
            "repro.obs.cli",
            ["regress", str(log), "--baseline", str(BASELINE), "--counters-only"],
        )
        if proc.returncode != 0:
            fail("counters drifted from the committed baseline", proc)
        print("      counters match the committed baseline")

        print("[4/5] synthetic slowdown must trip the regress gate")
        timing_baseline = tmp_path / "timing_baseline.json"
        proc = run_cli(
            "repro.obs.cli",
            ["regress", str(log), "--baseline", str(timing_baseline), "--write-baseline"],
        )
        if proc.returncode != 0:
            fail("writing the in-job timing baseline failed", proc)
        # Scale the injected stall to the measured run so the gate trips on
        # any machine: +150% of baseline wall, well past the 25% threshold.
        slow_seconds = max(2.0, 1.5 * agg["wall_seconds"])
        slow_log = tmp_path / "slow_events.jsonl"
        run_sweep(
            config_path,
            slow_log,
            tmp_path / "slow_out",
            {
                "REPRO_CAMPAIGN_SLOW_CELL": "eon__bimodal__8192",
                "REPRO_CAMPAIGN_SLOW_SECONDS": f"{slow_seconds:.1f}",
            },
        )
        proc = run_cli(
            "repro.obs.cli",
            ["regress", str(slow_log), "--baseline", str(timing_baseline), "--json"],
        )
        if proc.returncode == 0:
            fail(f"regress failed to flag a {slow_seconds:.1f}s injected straggler", proc)
        verdict = json.loads(proc.stdout)
        kinds = {v["kind"] for v in verdict["violations"]}
        if "wall" not in kinds:
            fail(f"slowdown verdict missing the wall violation: {verdict}")
        stats["slowdown"] = verdict
        slow_agg = aggregate_of(slow_log)
        slowest = slow_agg["stragglers"]["slowest"][0]
        if "eon__bimodal__8192" not in str(slowest.get("shard")):
            fail(f"straggler report names the wrong shard: {slowest}")
        print(
            f"      gate tripped ({sorted(kinds)}); straggler correctly "
            f"identified as {slowest['shard']}"
        )

        print("[5/5] store-health rollup sees warm result-store hits")
        store_dir = tmp_path / "store"
        store_log = tmp_path / "store_events.jsonl"
        run_sweep(
            config_path, tmp_path / "cold_store_out", tmp_path / "cold_out",
            {"REPRO_RESULT_STORE": str(store_dir)},
        )
        run_sweep(
            config_path, store_log, tmp_path / "warm_out",
            {"REPRO_RESULT_STORE": str(store_dir)},
        )
        warm_agg = aggregate_of(store_log)
        result_stats = warm_agg["stores"].get("result") or {}
        if result_stats.get("hits", 0) != SHARDS:
            fail(f"warm run should hit all {SHARDS} cells: {result_stats}")
        if warm_agg["counters"].get("result_store.hits") != SHARDS:
            fail(f"run summary disagrees with store events: {warm_agg['counters']}")
        stats["warm_store"] = result_stats
        print(f"      warm hits {result_stats['hits']}/{SHARDS}, rollup consistent")

    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        print(f"telemetry report written to {args.stats_out}")

    print("OK: complete trace, reports render, both regress gates behave")
    return 0


if __name__ == "__main__":
    sys.exit(main())
