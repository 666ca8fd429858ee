"""End-to-end check of the campaign executor, as CI runs it.

Drives the real ``repro-campaign`` CLI through the multi-process drills
the in-process tier-1 tests cannot cover:

1. serial reference: one worker drains a small campaign, ``merged.json``
   is the byte-identity baseline;
2. two concurrent workers (separate OS processes) share one fresh run
   directory — both must exit 0, the campaign's ``merged.json`` must be
   byte-identical to (1), and summing ``campaign.cells_executed`` across
   the two workers' event logs (via ``repro-stats campaign``) must equal
   the grid size exactly: the zero-duplication proof;
3. crash drill: a worker dies mid-campaign (``REPRO_CAMPAIGN_ABORT_AFTER``)
   holding a claim, then the run directory is synthetically damaged until
   one scan reports **all five classes** (completed / results-missing /
   failed / partial / missing), asserted via ``repro-campaign scan --json``;
4. recovery: ``rerun --status failed,partial,results`` with a tiny
   ``--stale-seconds`` steals the dead worker's claim, re-executes only the
   damaged classes (plus the still-queued missing cells), and the final
   merge is again byte-identical to (1).

Then the same executor under ``repro-figures``, over one tiny figure:

5. serial baseline (``--jobs 1``, the in-memory path);
6. ``--jobs 2`` — output must be byte-identical to (5);
7. ``--jobs 2 --run-dir`` with a forced mid-run crash
   (``REPRO_CAMPAIGN_ABORT_AFTER``), which must exit non-zero but leave
   cell checkpoints behind;
8. ``--resume`` of (7) — it must reclaim the dead workers' claims without
   waiting out the stale threshold, leave every checkpoint of (7)
   untouched, and again produce byte-identical output.

Exit status 0 means every stage behaved; any mismatch aborts with a
diagnostic.  ``--report-out`` writes a JSON report (CI uploads it).
Pass ``--expect-speedup`` to additionally require the ``--jobs 2`` run to
beat the serial run's wall time (only meaningful on multi-core machines).

Usage::

    PYTHONPATH=src python scripts/campaign_check.py [--report-out FILE] [--expect-speedup]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Small but not trivial: 2 families x 2 budgets x 2 benchmarks = 8 cells,
#: a few seconds per full drain at 5% scale.
CHECK_ENV = {
    "REPRO_SCALE": "0.05",
    "REPRO_BENCHMARKS": "gcc,eon",
}
GRID_FLAGS = ["--kind", "accuracy", "--families", "gshare,bimodal", "--budgets", "2048,4096"]
GRID_CELLS = 8
ABORT_AFTER = 3
#: figure1 over two benchmarks at 5% scale: a 72-cell grid that finishes
#: in a few seconds per run.
FIGURE = "figure1"


def run_cli(module: str, args: list[str], extra_env: dict[str, str] | None = None):
    env = dict(os.environ, **CHECK_ENV)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


def campaign_cli(args: list[str], extra_env: dict[str, str] | None = None):
    return run_cli("repro.harness.cli_campaign", args, extra_env)


def fail(message: str, proc=None) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    if proc is not None:
        print(f"--- exit {proc.returncode} ---", file=sys.stderr)
        print(f"--- stdout ---\n{proc.stdout}", file=sys.stderr)
        print(f"--- stderr ---\n{proc.stderr}", file=sys.stderr)
    raise SystemExit(1)


def figures_cli(args: list[str], extra_env: dict[str, str] | None = None):
    return run_cli("repro.harness.cli", [FIGURE, *args], extra_env)


def scan_counts(run_dir: Path) -> dict:
    proc = campaign_cli(["scan", str(run_dir), "--json"])
    if proc.returncode != 0:
        fail(f"scan of {run_dir} failed", proc)
    return json.loads(proc.stdout)["counts"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report-out", default=None, metavar="FILE",
        help="write the campaign drill report as JSON to FILE",
    )
    parser.add_argument(
        "--expect-speedup",
        action="store_true",
        help="require the --jobs 2 figure run to beat the serial wall time "
        "(only meaningful on multi-core machines)",
    )
    args = parser.parse_args(argv)
    report: dict = {"grid_cells": GRID_CELLS}

    with tempfile.TemporaryDirectory(prefix="campaign-check-") as tmp:
        tmp_path = Path(tmp)

        print("[1/8] serial reference campaign")
        ref_dir = tmp_path / "ref"
        proc = campaign_cli(["run", str(ref_dir), *GRID_FLAGS, "--owner", "ref", "--json"])
        if proc.returncode != 0:
            fail("serial reference campaign failed", proc)
        ref_result = json.loads(proc.stdout)
        if ref_result["worker"]["cells_executed"] != GRID_CELLS:
            fail(f"reference executed {ref_result['worker']} of {GRID_CELLS} cells")
        ref_merged = (ref_dir / "merged.json").read_bytes()
        report["serial"] = ref_result["worker"]

        print("[2/8] two concurrent workers, one shared run dir")
        shared_dir = tmp_path / "shared"
        logs = [tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"]
        started = time.perf_counter()
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.harness.cli_campaign",
                    "run", str(shared_dir), *GRID_FLAGS,
                    "--owner", f"w{i + 1}", "--no-merge",
                ],
                cwd=REPO_ROOT,
                env=dict(
                    os.environ,
                    **CHECK_ENV,
                    PYTHONPATH=str(REPO_ROOT / "src"),
                    REPRO_LOG=str(log),
                ),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for i, log in enumerate(logs)
        ]
        for proc, log in zip(procs, logs):
            out, err = proc.communicate(timeout=600)
            if proc.returncode != 0:
                print(out, file=sys.stderr)
                fail(f"concurrent worker ({log.name}) exited {proc.returncode}: {err}")
        wall = time.perf_counter() - started

        counts = scan_counts(shared_dir)
        if counts["completed"] != GRID_CELLS:
            fail(f"shared campaign incomplete after both workers: {counts}")
        proc = campaign_cli(["rerun", str(shared_dir), "--status", "missing", "--json"])
        if proc.returncode != 0:
            fail("final merge of the shared campaign failed", proc)
        if (shared_dir / "merged.json").read_bytes() != ref_merged:
            fail("two-worker merged.json differs from the serial reference")

        # Zero-duplication proof, from the workers' own event logs.
        proc = run_cli(
            "repro.obs.cli", ["campaign", *(str(log) for log in logs), "--json"]
        )
        if proc.returncode != 0:
            fail("repro-stats campaign rollup failed", proc)
        rollup = json.loads(proc.stdout)
        executed = rollup["totals"]["cells_executed"]
        if executed != GRID_CELLS:
            fail(
                f"duplicated executions: workers executed {executed} cells "
                f"for a {GRID_CELLS}-cell grid (claims "
                f"{rollup['claim_events']}, steals {rollup['steal_events']})"
            )
        per_worker = {
            owner: worker["cells_executed"]
            for owner, worker in rollup["workers"].items()
        }
        print(
            f"      zero duplication: {per_worker} sums to {executed}/{GRID_CELLS} "
            f"({rollup['claim_events']} claims, {rollup['steal_events']} steals, "
            f"{wall:.1f}s)"
        )
        report["concurrent"] = {
            "per_worker": per_worker,
            "executed": executed,
            "claims": rollup["claim_events"],
            "steals": rollup["steal_events"],
            "wall_seconds": wall,
        }

        print(f"[3/8] crash drill + synthetic damage (abort after {ABORT_AFTER})")
        crash_dir = tmp_path / "crash"
        proc = campaign_cli(
            ["run", str(crash_dir), *GRID_FLAGS, "--owner", "victim", "--no-merge"],
            extra_env={"REPRO_CAMPAIGN_ABORT_AFTER": str(ABORT_AFTER)},
        )
        if proc.returncode == 0:
            fail("crashed campaign run unexpectedly exited 0")
        counts = scan_counts(crash_dir)
        if counts["completed"] != ABORT_AFTER or counts["partial"] != 1:
            fail(f"post-crash classification unexpected: {counts}")

        # Damage the run dir until one scan shows all five classes: corrupt
        # one completed checkpoint (-> partial), delete another while its
        # payload stays in the result store (-> results-missing needs a
        # store, so re-save it first), and exhaust one queued cell's retry
        # budget into a failure marker (-> failed).
        store_dir = tmp_path / "result-store"
        shard_dir = crash_dir / "shards"
        checkpoints = sorted(
            p for p in shard_dir.glob("*.json") if not p.name.endswith(".failed.json")
        )
        torn, regen = checkpoints[0], checkpoints[1]
        regen_shard = json.loads(regen.read_text())["shard"]
        torn.write_text('{"schema": 1, "payl')  # killed mid-write
        save_snippet = (
            "import json, sys\n"
            "from repro.harness.campaign import load_campaign\n"
            "from repro.harness.campaign import _shard_result_key\n"
            "from repro.harness.resultstore import active_result_store\n"
            "from repro.harness.campaign import shard_from_dict\n"
            f"spec = load_campaign({str(crash_dir)!r})\n"
            f"shard = shard_from_dict({json.dumps(regen_shard)})\n"
            "key, cell = _shard_result_key(shard, spec['cfg']['accuracy'])\n"
            f"payload = json.loads(open({str(regen)!r}).read())['payload']\n"
            "active_result_store().save(key, cell, payload)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", save_snippet],
            cwd=REPO_ROOT,
            env=dict(
                os.environ,
                **CHECK_ENV,
                PYTHONPATH=str(REPO_ROOT / "src"),
                REPRO_RESULT_STORE=str(store_dir),
            ),
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            fail(f"seeding the result store failed: {proc.stderr}")
        regen.unlink()  # checkpoint gone, result-store payload remains
        failing = json.loads(
            (crash_dir / "queue" / sorted(os.listdir(crash_dir / "queue"))[-1]).read_text()
        )["shard"]
        failing_key = "__".join(
            [failing["kind"], failing["benchmark"], failing["family"],
             str(failing["budget_bytes"])]
        )
        (shard_dir / f"{failing_key}.failed.json").write_text(
            json.dumps({"schema": 1, "shard": failing, "error": "injected"})
        )
        (crash_dir / "queue" / f"{failing_key}.json").unlink()

        proc = campaign_cli(
            ["scan", str(crash_dir), "--json"],
            extra_env={"REPRO_RESULT_STORE": str(store_dir)},
        )
        if proc.returncode != 0:
            fail("scan of the damaged run dir failed", proc)
        counts = json.loads(proc.stdout)["counts"]
        expected = {
            "completed": ABORT_AFTER - 2,   # one torn, one deleted
            "partial": 2,                   # torn checkpoint + held claim
            "failed": 1,
            "results_missing": 1,
            "missing": GRID_CELLS - ABORT_AFTER - 2,
        }
        if counts != expected:
            fail(f"five-class classification mismatch: {counts} != {expected}")
        print(f"      all five classes present: {counts}")
        report["damaged_scan"] = counts

        print("[4/8] selective rerun --status failed,partial,results")
        proc = campaign_cli(
            [
                "rerun", str(crash_dir),
                "--status", "failed,partial,results",
                "--owner", "medic",
                "--stale-seconds", "0.05",
                "--json",
            ],
            extra_env={"REPRO_RESULT_STORE": str(store_dir)},
        )
        if proc.returncode != 0:
            fail("selective rerun failed", proc)
        rerun_result = json.loads(proc.stdout)
        worker = rerun_result["worker"]
        if worker["steals"] != 1:
            fail(f"expected the medic to steal the victim's claim: {worker}")
        if worker["cells_regenerated"] != 1:
            fail(f"expected 1 store-regenerated cell: {worker}")
        counts = scan_counts(crash_dir)
        if counts["completed"] != GRID_CELLS:
            fail(f"campaign not fully recovered: {counts}")
        if (crash_dir / "merged.json").read_bytes() != ref_merged:
            fail("recovered merged.json differs from the serial reference")
        print(
            f"      recovered: {worker['cells_executed']} executed, "
            f"{worker['cells_regenerated']} regenerated, {worker['steals']} stolen; "
            f"merge byte-identical"
        )
        report["recovery"] = worker

        report["figures"] = check_figure_sweeps(tmp_path, args.expect_speedup)

    if args.report_out:
        Path(args.report_out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"report -> {args.report_out}")
    print("OK: concurrent, crashed and damaged campaigns all reconverge "
          "byte-identically with zero duplicated executions, and serial, "
          "--jobs 2 and crash+resume figure outputs are byte-identical")
    return 0


def check_figure_sweeps(tmp_path: Path, expect_speedup: bool) -> dict:
    """Stages 5-8: the executor under repro-figures."""
    out = {name: tmp_path / name for name in ("serial", "parallel", "resumed")}

    def output(name: str) -> str:
        return (out[name] / f"{FIGURE}.txt").read_text()

    print(f"[5/8] serial {FIGURE} (--jobs 1)")
    started = time.perf_counter()
    proc = figures_cli(["--jobs", "1", "--output-dir", str(out["serial"])])
    serial_seconds = time.perf_counter() - started
    if proc.returncode != 0:
        fail("serial figure run failed", proc)

    print(f"[6/8] {FIGURE} --jobs 2")
    started = time.perf_counter()
    proc = figures_cli(["--jobs", "2", "--output-dir", str(out["parallel"])])
    parallel_seconds = time.perf_counter() - started
    if proc.returncode != 0:
        fail("--jobs 2 figure run failed", proc)
    if output("parallel") != output("serial"):
        fail("--jobs 2 output differs from serial output")
    print(
        f"      byte-identical ({serial_seconds:.1f}s serial, "
        f"{parallel_seconds:.1f}s with --jobs 2)"
    )

    print(f"[7/8] --jobs 2 --run-dir crash after {ABORT_AFTER} cells per worker")
    run_dir = tmp_path / "figure-run"
    proc = figures_cli(
        ["--jobs", "2", "--run-dir", str(run_dir)],
        extra_env={"REPRO_CAMPAIGN_ABORT_AFTER": str(ABORT_AFTER)},
    )
    if proc.returncode == 0:
        fail("crashed figure run unexpectedly exited 0")
    counts = scan_counts(run_dir)
    cells = sum(counts.values())
    if not ABORT_AFTER <= counts["completed"] < cells or not counts["partial"]:
        fail(f"crashed run left unexpected evidence: {counts}")
    checkpoints = {
        path.name: path.stat().st_mtime_ns
        for path in (run_dir / "shards").glob("*.json")
    }
    print(f"      exit {proc.returncode}; scan {counts}")

    print("[8/8] --resume the crashed run (default stale threshold)")
    started = time.perf_counter()
    proc = figures_cli(
        ["--jobs", "2", "--resume", str(run_dir), "--output-dir", str(out["resumed"])],
        extra_env={"REPRO_CAMPAIGN_STALE_SECONDS": ""},
    )
    resume_seconds = time.perf_counter() - started
    if proc.returncode != 0:
        fail("resumed figure run failed", proc)
    for name, mtime in checkpoints.items():
        if (run_dir / "shards" / name).stat().st_mtime_ns != mtime:
            fail(f"resume recomputed checkpointed cell {name}")
    if scan_counts(run_dir)["completed"] != cells:
        fail("resumed campaign is not complete")
    if output("resumed") != output("serial"):
        fail("resumed output differs from serial output")
    if resume_seconds > 300:
        fail(f"resume took {resume_seconds:.0f}s: dead workers' claims were not "
             f"reclaimed at once")
    print(
        f"      resumed {len(checkpoints)} cells, executed "
        f"{cells - len(checkpoints)} in {resume_seconds:.1f}s; byte-identical"
    )
    if expect_speedup and parallel_seconds >= serial_seconds:
        fail(
            f"--jobs 2 ({parallel_seconds:.1f}s) not faster than serial "
            f"({serial_seconds:.1f}s)"
        )
    return {
        "cells": cells,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "crash_scan": counts,
        "resumed": len(checkpoints),
        "resume_seconds": resume_seconds,
    }


if __name__ == "__main__":
    sys.exit(main())
