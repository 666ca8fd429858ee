"""Every end-to-end drill that needs real processes, in one harness.

A drill is a declared, ordered list of named stages.  Each stage drives
the real entry points (``repro-figures``, ``repro-campaign``,
``repro-stats``, ``repro-serve``) in subprocesses and checks what they
leave behind with a few shared steps: an output against the storeless
baseline byte for byte, counters read from a run manifest, an event log
or a ``--json`` reply against declared values, and damage done to store
entries (truncation, a flipped byte, a tampered JSON field, a stale
``*.tmp.<pid>`` staging file).  The drills:

* ``trace-store`` and ``result-store`` -- one shape (:class:`StoreDrill`)
  declared for each content-addressed store: cold, warm with zero work,
  damage, recompute exactly the damaged entries;
* ``campaign`` -- concurrent workers with zero duplicated cells, a crash
  plus damage into all five classes and a selective rerun, then
  ``repro-figures`` serial vs ``--jobs 2`` vs crash + ``--resume``;
* ``obs`` -- a complete cross-process span tree, the report surfaces, the
  counters gate against ``results/obs_baseline.json``, a straggler that
  must trip the timing gate, and the store-health rollup;
* ``service`` -- a real ``repro-serve`` daemon: a round trip
  byte-identical to the CLI, a cache-hit resubmission, a reduced
  loadtest, a SIGTERM drain and the telemetry rollup.

Every child starts from the caller's environment with each inherited
``REPRO_*`` setting removed, then gets the drill's own, so a setting
exported in the caller's shell cannot change what a drill sees.  A
failing stage fails its drill, naming both; the other drills still run,
and the exit status is non-zero if any drill failed.  ``--report-out``
writes every drill's per-stage numbers as JSON.  ``--write-baseline``
makes the ``obs`` drill rewrite ``results/obs_baseline.json`` from its
traced sweep instead of gating on it (after changing the grid or the
counter schema).  Needs no install and no ``PYTHONPATH``.

Usage::

    python scripts/drill.py [DRILL ...] [--report-out FILE] [--write-baseline]
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import struct
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
CONFIGS = REPO_ROOT / "configs"
OBS_BASELINE = REPO_ROOT / "results" / "obs_baseline.json"

FIGURES = "repro.harness.cli"
CAMPAIGN = "repro.harness.cli_campaign"
STATS = "repro.obs.cli"

#: Every drill's scale: small but not trivial, two stand-ins at 5% scale.
SCALE = {"REPRO_SCALE": "0.05", "REPRO_BENCHMARKS": "gcc,eon"}
#: The figure the store and campaign drills regenerate: at SCALE a 72-cell
#: grid (4 families x 9 budgets x 2 benchmarks) over one trace per benchmark.
FIGURE = "figure1"
FIGURE_CELLS = 4 * 9 * 2
#: A warm run must report zero for each of these: no trace generation, no
#: predictor construction, no prediction work of any kind.
ZERO_WORK = {"workloads.executor_runs": 0, "predictors.builds": 0, "accuracy.measurements": 0}
#: No child may outlive this many seconds; a hung one fails its stage.
CHILD_TIMEOUT = 600


# -- shared steps ----------------------------------------------------------------


class DrillFailure(Exception):
    """A check that did not hold; ``proc`` is the process that showed it."""

    def __init__(self, message: str, proc=None):
        super().__init__(message)
        self.proc = proc


def check(condition: bool, message: str, proc=None) -> None:
    if not condition:
        raise DrillFailure(message, proc)


class Run:
    """One drill's run: its scratch directory, its own settings, what its
    stages hand on to later stages, and the processes it started."""

    def __init__(self, tmp: Path, write_baseline: bool):
        self.tmp = tmp
        self.write_baseline = write_baseline
        self.env: dict[str, str] = {}
        self.kept: dict = {}
        self.children: list[subprocess.Popen] = []

    def path(self, name: str) -> Path:
        return self.tmp / name

    def environ(self, extra: dict[str, str] | None) -> dict[str, str]:
        """The caller's environment without any inherited ``REPRO_*``
        setting, with ``src`` on the path, then the drill scale, the
        drill's own settings and ``extra``."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        return {**env, **SCALE, **self.env, **(extra or {})}

    def run(self, what: str, *argv, env=None, ok: bool = True, timeout=CHILD_TIMEOUT):
        """Run ``python *argv`` (``-m module ...``, ``-c code ...`` or a
        script) to its end; it must exit 0, or with ``ok=False`` must fail."""
        proc = subprocess.run(
            [sys.executable, *map(str, argv)],
            cwd=REPO_ROOT,
            env=self.environ(env),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        if ok:
            check(proc.returncode == 0, f"{what} failed", proc)
        else:
            check(proc.returncode != 0, f"{what} unexpectedly exited 0", proc)
        return proc

    def figures(self, what: str, *args, **kwargs):
        return self.run(what, "-m", FIGURES, *args, **kwargs)

    def reply(self, what: str, module: str, *args, env=None) -> dict:
        """The JSON reply a successful ``--json`` run of ``module`` prints."""
        return json.loads(self.run(what, "-m", module, *args, "--json", env=env).stdout)

    def spawn(self, *argv, env=None) -> subprocess.Popen:
        """Start ``python *argv`` in the background; killed when the drill ends."""
        proc = subprocess.Popen(
            [sys.executable, *map(str, argv)],
            cwd=REPO_ROOT,
            env=self.environ(env),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.children.append(proc)
        return proc

    def close(self) -> None:
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for stream in (proc.stdout, proc.stderr):
                stream.close()


def same_bytes(actual: Path | bytes, expected: Path | bytes, what: str) -> None:
    """Fail unless an output is byte-identical to its baseline."""
    got, want = (x.read_bytes() if isinstance(x, Path) else x for x in (actual, expected))
    check(got == want, f"{what} differs from its baseline ({len(got)} vs {len(want)} bytes)")


def expect(actual: dict, declared: dict, what: str) -> dict:
    """Fail unless each declared counter holds its declared value (a
    counter the run never touched reads 0); returns the values read."""
    read = {k: actual.get(k, 0) for k in declared}
    wrong = {k: v for k, v in read.items() if v != declared[k]}
    check(not wrong, f"{what}: read {wrong} where {declared} was declared (all: {actual})")
    return read


def manifest_counters(out_dir: Path, target: str = FIGURE) -> dict:
    manifest = json.loads((out_dir / f"{target}.manifest.json").read_text())
    return manifest["metrics"]["counters"]


def scan(run: Run, run_dir: Path, env=None) -> dict:
    """A campaign run dir's five-class counts (``repro-campaign scan --json``)."""
    return run.reply(f"scan of {run_dir.name}", CAMPAIGN, "scan", run_dir, env=env)["counts"]


def truncate(entry: Path) -> None:
    """Cut an entry in half, as a crash mid-write leaves it."""
    data = entry.read_bytes()
    entry.write_bytes(data[: len(data) // 2])


def flip_byte(entry: Path, offset: int | None = None) -> None:
    """Invert one byte (the middle one by default): bit rot."""
    blob = bytearray(entry.read_bytes())
    blob[len(blob) // 2 if offset is None else offset] ^= 0xFF
    entry.write_bytes(bytes(blob))


#: A trace-store entry's JSON header starts after the 8-byte magic and the
#: uint32 header length (``repro.workloads.io``).
TRACE_HEADER = 12


def flip_header_byte(entry: Path) -> None:
    """Invert the middle byte of a trace entry's JSON header."""
    (length,) = struct.unpack_from("<I", entry.read_bytes(), TRACE_HEADER - 4)
    flip_byte(entry, TRACE_HEADER + length // 2)


def tamper_payload(entry: Path) -> None:
    """Rewrite a result entry's rate under its old checksum: well-formed
    JSON that carries a wrong number."""
    doc = json.loads(entry.read_text())
    doc["payload"]["misprediction_percent"] = 0.0
    entry.write_text(json.dumps(doc, indent=2, sort_keys=True))


def plant_stale_tmp(entry: Path) -> None:
    """Leave a half-written staging file beside an entry, as a writer
    killed before its rename does."""
    (entry.parent / f"{entry.name}.tmp.4242").write_bytes(b"\x00" * 64)


Stage = tuple[str, Callable[[Run], "dict | None"]]


# -- the store drills: one shape, declared once per store --------------------------


@dataclass(frozen=True)
class Damage:
    """One damage round: harms done to the cold run's entries (picked by
    sorted position), then the counters a ``figure1 --profile`` run over
    the damaged store must report while it prints the baseline's bytes."""

    name: str
    harms: tuple[tuple[Callable[[Path], None], int], ...]
    expect: dict[str, int]


@dataclass(frozen=True)
class StoreDrill:
    """A content-addressed store under ``repro-figures``: a storeless
    baseline, a cold run that fills the store, a warm run that repeats
    none of the work the store holds, then damage rounds that must each
    recompute exactly the damaged entries.  Every run prints the
    baseline's bytes: a store may save work, never change a result."""

    flag: str  # the repro-figures option naming the store
    entries: str  # glob of one entry
    runs: tuple  # arguments of the cold and warm runs
    outputs: tuple[str, ...]  # targets those runs print
    cells: int  # entries the cold run writes
    warm: dict[str, int]  # counters each warm manifest must report
    damage: tuple[Damage, ...]
    before_warm: tuple[Stage, ...] = ()
    after: tuple[Stage, ...] = ()

    def stages(self) -> list[Stage]:
        return [
            ("baseline", self.baseline),
            ("cold", self.cold),
            *self.before_warm,
            ("warm", self.warm_run),
            *((damage.name, partial(self.damaged, damage)) for damage in self.damage),
            *self.after,
        ]

    def store_counters(self, counters: dict) -> dict:
        """The store's own counters, which share its option's name."""
        prefix = self.flag.lstrip("-").replace("-", "_")
        return {k: v for k, v in counters.items() if prefix in k}

    def figure(self, run: Run, what: str, out: str, *args) -> Path:
        run.figures(
            what, *args, self.flag, run.path("store"), "--jobs", "1",
            "--output-dir", run.path(out),
        )
        return run.path(out)

    def same_as_baseline(self, run: Run, out: Path, targets) -> None:
        for target in targets:
            same_bytes(
                out / f"{target}.txt", run.path("baseline") / f"{FIGURE}.txt",
                f"{out.name} {target} output",
            )

    def baseline(self, run: Run) -> None:
        """figure1 without the store: the bytes every later run must print."""
        run.figures("baseline run", FIGURE, "--jobs", "1", "--output-dir", run.path("baseline"))

    def cold(self, run: Run) -> dict:
        """The cold run fills the store, one entry per trace or cell, and
        prints the baseline's bytes."""
        out = self.figure(run, "cold store run", "cold", *self.runs)
        self.same_as_baseline(run, out, self.outputs)
        entries = sorted(run.path("store").glob(self.entries))
        check(len(entries) == self.cells,
              f"expected {self.cells} store entries, found {len(entries)}")
        run.kept["entries"] = entries
        return {"entries": len(entries)}

    def warm_run(self, run: Run) -> dict:
        """The warm run prints the same bytes, and its manifests prove the
        store served what it holds: none of that work ran again."""
        out = self.figure(run, "warm store run", "warm", *self.runs, "--profile")
        self.same_as_baseline(run, out, self.outputs)
        numbers = {}
        for target in self.outputs:
            counters = manifest_counters(out, target)
            numbers[target] = {
                **self.store_counters(counters), **expect(counters, self.warm, f"warm {target}"),
            }
        print(f"      byte-identical, warm counters as declared: {numbers}")
        return numbers

    def damaged(self, damage: Damage, run: Run) -> dict:
        """A run over damaged entries still exits 0 with the baseline's
        bytes, counts each damaged entry corrupt and recomputes exactly
        those (a stale staging file is ignored, never read)."""
        entries = run.kept["entries"]
        for harm, index in damage.harms:
            harm(entries[index])
        out = self.figure(
            run, f"run over the {damage.name} store", damage.name, FIGURE, "--profile"
        )
        self.same_as_baseline(run, out, (FIGURE,))
        counters = manifest_counters(out)
        read = expect(counters, damage.expect, f"{damage.name} round")
        print(f"      recomputed the damaged entries, results unchanged: {read}")
        return {**self.store_counters(counters), **read}


def prewarm(run: Run) -> None:
    """``--warm-traces`` twice: the first may top up lengths figure1 does
    not use (the IPC trace length); the second must find every entry
    present and generate none."""
    store = run.path("store")
    run.figures("prewarm", "--trace-store", store, "--warm-traces")
    proc = run.figures("second prewarm", "--trace-store", store, "--warm-traces")
    check("0 generated" in proc.stdout, f"second prewarm regenerated entries: {proc.stdout!r}")


RESULT_CONFIGS = (
    "--config", CONFIGS / "figure1.json", "--config", CONFIGS / "figure1_inferred.json",
)
#: ``--dry-run`` classification columns after target and mode.
DRY_RUN_COLUMNS = ("cells", "completed", "results", "failed", "partial", "missing")


def dry_run(run: Run) -> dict:
    """``--dry-run`` classifies every cell of figure1 and of its inferred
    projection as completed (a pure store hit) and none as anything else."""
    proc = run.figures(
        "dry run", *RESULT_CONFIGS, "--result-store", run.path("store"), "--dry-run"
    )
    rows = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 10 and parts[1] in ("runner", "sweep", "inferred"):
            rows[parts[0]] = dict(zip(DRY_RUN_COLUMNS, map(int, parts[2:8])))
    declared = {
        **dict.fromkeys(DRY_RUN_COLUMNS, 0), "cells": FIGURE_CELLS, "completed": FIGURE_CELLS,
    }
    for target in (FIGURE, "figure1_inferred"):
        expect(rows.get(target, {}), declared, f"dry run of {target}\n{proc.stdout}")
    return rows


def inferred_only(run: Run) -> dict:
    """A fresh inferred config projecting the 64K column is assembled
    purely from stored results: its own manifest shows zero work and one
    hit per family and benchmark."""
    projection = {
        "schema": 1,
        "target": "table_mid64",
        "mode": "inferred",
        "title": "Inferred: 64K column of the Figure 1 grid",
        "based_on": [FIGURE],
        "grids": [
            {
                "kind": "accuracy",
                "families": ["gshare", "bimode", "multicomponent", "perceptron"],
                "budgets": [65536],
            }
        ],
    }
    config = run.path("table_mid64.json")
    config.write_text(json.dumps(projection, indent=2))
    out = run.path("inferred")
    run.figures(
        "inferred regeneration", "--config", CONFIGS / "figure1.json", "--config", config,
        "--result-store", run.path("store"), "--output-dir", out, "--profile",
    )
    counters = manifest_counters(out, "table_mid64")
    read = expect(counters, {**ZERO_WORK, "result_store.hits": 4 * 2}, "inferred table")
    table = (out / "table_mid64.txt").read_text()
    check("64K" in table and "perceptron" in table, f"inferred table looks wrong:\n{table}")
    return {**RESULT_STORE.store_counters(counters), **read}


TRACE_STORE = StoreDrill(
    flag="--trace-store",
    entries="*.trace",
    runs=(FIGURE,),
    outputs=(FIGURE,),
    cells=2,
    warm={"workloads.executor_runs": 0, "trace_store.hits": 2},
    damage=(
        Damage("header", ((flip_header_byte, 0),),
               {"trace_store.corrupt": 1, "workloads.executor_runs": 1}),
        Damage("damage", ((truncate, 0), (flip_byte, 1), (plant_stale_tmp, 0)),
               {"trace_store.corrupt": 2, "workloads.executor_runs": 2}),
    ),
    before_warm=(("prewarm", prewarm),),
)

RESULT_STORE = StoreDrill(
    flag="--result-store",
    entries="*.json",
    runs=RESULT_CONFIGS,
    outputs=(FIGURE, "figure1_inferred"),
    cells=FIGURE_CELLS,
    warm={**ZERO_WORK, "result_store.hits": FIGURE_CELLS, "result_store.misses": 0},
    damage=(
        Damage("damage", ((truncate, 0), (tamper_payload, 1), (plant_stale_tmp, 0)),
               {"result_store.corrupt": 2, "predictors.builds": 2, "result_store.writes": 2}),
    ),
    before_warm=(("dry-run", dry_run),),
    after=(("inferred", inferred_only),),
)


# -- the campaign drill ----------------------------------------------------------

GRID = ("--kind", "accuracy", "--families", "gshare,bimodal", "--budgets", "2048,4096")
GRID_CELLS = 2 * 2 * 2  # families x budgets x benchmarks
ABORT_AFTER = 3
ABORT = {"REPRO_CAMPAIGN_ABORT_AFTER": str(ABORT_AFTER)}

#: Saves one checkpoint's payload to the active result store under its
#: cell's key (argv: run dir, shard JSON, checkpoint path).
SAVE_TO_STORE = """
import json, sys
from repro.harness.campaign import _shard_result_key, load_campaign, shard_from_dict
from repro.harness.resultstore import active_result_store
run_dir, shard, checkpoint = sys.argv[1:]
cfg = load_campaign(run_dir)["cfg"]["accuracy"]
key, cell = _shard_result_key(shard_from_dict(json.loads(shard)), cfg)
active_result_store().save(key, cell, json.loads(open(checkpoint).read())["payload"])
"""


def campaign_serial(run: Run) -> dict:
    """One worker drains the grid alone; its ``merged.json`` is the
    byte-identity reference for every later merge."""
    ref = run.path("ref")
    worker = run.reply(
        "serial reference campaign", CAMPAIGN, "run", ref, *GRID, "--owner", "ref"
    )["worker"]
    expect(worker, {"cells_executed": GRID_CELLS}, "reference worker")
    run.kept["merged"] = (ref / "merged.json").read_bytes()
    return {"grid_cells": GRID_CELLS, **worker}


def campaign_concurrent(run: Run) -> dict:
    """Two worker processes share one fresh run dir: both exit 0, the merge
    is byte-identical to the reference, and the cells their own event logs
    count as executed sum to the grid exactly -- the zero-duplication proof."""
    shared = run.path("shared")
    logs = [run.path("w1.jsonl"), run.path("w2.jsonl")]
    started = time.perf_counter()
    workers = [
        run.spawn(
            "-m", CAMPAIGN, "run", shared, *GRID, "--owner", f"w{i}", "--no-merge",
            env={"REPRO_LOG": str(log)},
        )
        for i, log in enumerate(logs, 1)
    ]
    for worker, log in zip(workers, logs):
        out, err = worker.communicate(timeout=CHILD_TIMEOUT)
        check(worker.returncode == 0,
              f"concurrent worker ({log.name}) exited {worker.returncode}: {err}\n{out}")
    wall = time.perf_counter() - started
    expect(scan(run, shared), {"completed": GRID_CELLS}, "shared campaign after both workers")
    run.reply("final merge of the shared campaign", CAMPAIGN, "rerun", shared,
              "--status", "missing")
    same_bytes(shared / "merged.json", run.kept["merged"], "two-worker merged.json")
    rollup = run.reply("repro-stats campaign rollup", STATS, "campaign", *logs)
    executed = rollup["totals"]["cells_executed"]
    check(executed == GRID_CELLS,
          f"duplicated executions: workers executed {executed} cells for a {GRID_CELLS}-cell "
          f"grid (claims {rollup['claim_events']}, steals {rollup['steal_events']})")
    per_worker = {owner: w["cells_executed"] for owner, w in rollup["workers"].items()}
    print(f"      zero duplication: {per_worker} sums to {executed}/{GRID_CELLS} "
          f"({rollup['claim_events']} claims, {rollup['steal_events']} steals, {wall:.1f}s)")
    return {
        "per_worker": per_worker, "executed": executed, "claims": rollup["claim_events"],
        "steals": rollup["steal_events"], "wall_seconds": wall,
    }


def campaign_crash(run: Run) -> dict:
    """A worker dies after ABORT_AFTER cells holding a claim.  The run dir
    is then damaged until one scan shows all five classes: a torn
    checkpoint (partial), a checkpoint deleted while the result store
    keeps its payload (results-missing), and a queued cell whose retry
    budget is spent (failed)."""
    crash, store = run.path("crash"), {"REPRO_RESULT_STORE": str(run.path("result-store"))}
    run.run("crashed campaign run", "-m", CAMPAIGN, "run", crash, *GRID, "--owner", "victim",
            "--no-merge", env=ABORT, ok=False)
    expect(scan(run, crash), {"completed": ABORT_AFTER, "partial": 1}, "post-crash classification")
    shards, queue = crash / "shards", crash / "queue"
    checkpoints = sorted(p for p in shards.glob("*.json") if not p.name.endswith(".failed.json"))
    torn, regen = checkpoints[:2]
    truncate(torn)
    shard = json.loads(regen.read_text())["shard"]
    run.run("seeding the result store", "-c", SAVE_TO_STORE, crash, json.dumps(shard), regen,
            env=store)
    regen.unlink()
    failing = json.loads((queue / sorted(os.listdir(queue))[-1]).read_text())["shard"]
    key = "__".join(str(failing[k]) for k in ("kind", "benchmark", "family", "budget_bytes"))
    (shards / f"{key}.failed.json").write_text(
        json.dumps({"schema": 1, "shard": failing, "error": "injected"})
    )
    (queue / f"{key}.json").unlink()
    counts = scan(run, crash, env=store)
    five = {
        "completed": ABORT_AFTER - 2,  # one torn, one deleted
        "partial": 2,  # torn checkpoint + held claim
        "failed": 1,
        "results_missing": 1,
        "missing": GRID_CELLS - ABORT_AFTER - 2,
    }
    check(counts == five, f"five-class classification mismatch: {counts} != {five}")
    print(f"      all five classes present: {counts}")
    return counts


def campaign_rerun(run: Run) -> dict:
    """``rerun --status failed,partial,results`` with a tiny stale threshold
    steals the dead worker's claim, regenerates the results-missing cell
    from the store, runs the rest and merges byte-identically."""
    crash = run.path("crash")
    worker = run.reply(
        "selective rerun", CAMPAIGN, "rerun", crash, "--status", "failed,partial,results",
        "--owner", "medic", "--stale-seconds", "0.05",
        env={"REPRO_RESULT_STORE": str(run.path("result-store"))},
    )["worker"]
    expect(worker, {"steals": 1, "cells_regenerated": 1}, "the medic worker")
    expect(scan(run, crash), {"completed": GRID_CELLS}, "recovered campaign")
    same_bytes(crash / "merged.json", run.kept["merged"], "recovered merged.json")
    print(f"      recovered: {worker['cells_executed']} executed, {worker['cells_regenerated']} "
          f"regenerated, {worker['steals']} stolen; merge byte-identical")
    return worker


def timed_figure(run: Run, what: str, *args, **kwargs) -> float:
    started = time.perf_counter()
    run.figures(what, FIGURE, *args, **kwargs)
    return time.perf_counter() - started


def figure_serial(run: Run) -> dict:
    """figure1 with ``--jobs 1`` (the in-process path): the reference for
    the executor's figure stages."""
    seconds = timed_figure(
        run, "serial figure run", "--jobs", "1", "--output-dir", run.path("serial")
    )
    run.kept["serial_seconds"] = seconds
    return {"seconds": seconds}


def figure_jobs2(run: Run) -> dict:
    """figure1 with ``--jobs 2`` prints the serial bytes.  Both wall times
    and their ratio are reported, not gated: on a shared runner two
    workers need not win on a grid this small."""
    serial = run.kept["serial_seconds"]
    parallel = timed_figure(
        run, "--jobs 2 figure run", "--jobs", "2", "--output-dir", run.path("parallel")
    )
    same_bytes(run.path("parallel") / f"{FIGURE}.txt", run.path("serial") / f"{FIGURE}.txt",
               "--jobs 2 output")
    print(f"      byte-identical ({serial:.1f}s serial, {parallel:.1f}s with --jobs 2, "
          f"speedup {serial / parallel:.2f}x)")
    return {"serial_seconds": serial, "parallel_seconds": parallel, "speedup": serial / parallel}


def figure_crash(run: Run) -> dict:
    """``--jobs 2 --run-dir`` with every worker aborting after ABORT_AFTER
    cells exits non-zero but leaves checkpoints and a held claim behind."""
    run_dir = run.path("figure-run")
    run.figures("crashed figure run", FIGURE, "--jobs", "2", "--run-dir", run_dir,
                env=ABORT, ok=False)
    counts = scan(run, run_dir)
    cells = sum(counts.values())
    check(ABORT_AFTER <= counts["completed"] < cells and counts["partial"] > 0,
          f"crashed run left unexpected evidence: {counts}")
    run.kept["cells"] = cells
    run.kept["checkpoints"] = {
        p.name: p.stat().st_mtime_ns for p in (run_dir / "shards").glob("*.json")
    }
    print(f"      scan {counts}")
    return {"cells": cells, "scan": counts}


def figure_resume(run: Run) -> dict:
    """``--resume`` (default stale threshold) reclaims the dead workers'
    claims at once, leaves every checkpoint of the crash untouched,
    completes the campaign and prints the serial bytes."""
    run_dir, checkpoints = run.path("figure-run"), run.kept["checkpoints"]
    seconds = timed_figure(run, "resumed figure run", "--jobs", "2", "--resume", run_dir,
                           "--output-dir", run.path("resumed"))
    touched = [
        n for n, t in checkpoints.items() if (run_dir / "shards" / n).stat().st_mtime_ns != t
    ]
    check(not touched, f"resume recomputed checkpointed cells {touched}")
    expect(scan(run, run_dir), {"completed": run.kept["cells"]}, "resumed campaign")
    same_bytes(run.path("resumed") / f"{FIGURE}.txt", run.path("serial") / f"{FIGURE}.txt",
               "resumed output")
    check(seconds <= 300,
          f"resume took {seconds:.0f}s: dead workers' claims were not reclaimed at once")
    executed = run.kept["cells"] - len(checkpoints)
    print(f"      resumed {len(checkpoints)} cells, executed {executed} in {seconds:.1f}s; "
          f"byte-identical")
    return {"resumed": len(checkpoints), "executed": executed, "seconds": seconds}


# -- the obs drill ---------------------------------------------------------------

OBS_TARGET = "obs_drill_sweep"
OBS_SWEEP = {
    "schema": 1,
    "target": OBS_TARGET,
    "mode": "sweep",
    "title": "obs drill: telemetry exercise grid",
    "grids": [{"kind": "accuracy", "families": ["gshare", "bimodal"], "budgets": [2048, 8192]}],
}
OBS_SHARDS = 2 * 2 * 2  # families x budgets x benchmarks
SLOW_CELL = "eon__bimodal__8192"


def obs_api():
    """repro's event-log readers (pure functions of a log), from ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.obs import aggregate, events

    return aggregate, events


def traced_sweep(run: Run, name: str, **env) -> Path:
    """The obs grid with ``--jobs 2`` and ``REPRO_LOG`` at ``<name>.jsonl``."""
    config = run.path(f"{OBS_TARGET}.json")
    config.write_text(json.dumps(OBS_SWEEP, indent=2))
    log = run.path(f"{name}.jsonl")
    run.figures(f"traced parallel sweep ({name})", "--config", config, "--jobs", "2",
                "--output-dir", run.path(name), env={"REPRO_LOG": str(log), **env})
    return log


def aggregate_of(log: Path) -> dict:
    """The telemetry report of a log whose every event is schema-valid."""
    aggregate, events = obs_api()
    records = events.read_run_events(log)
    bad = [problem for record in records for problem in events.validate_event(record)]
    check(not bad, f"invalid events in {log.name}: {bad[:5]}")
    return aggregate.aggregate_run(records)


def obs_sweep(run: Run) -> dict:
    """A ``--jobs 2`` sweep with ``REPRO_LOG`` leaves one complete
    cross-process span tree: worker sidecars merged back, no orphan or
    unclosed span, exactly one ``campaign.run`` span, every shard span
    descending from it on its trace id, from at least two worker PIDs
    other than the run's."""
    log = traced_sweep(run, "events")
    check(not list(log.parent.glob(f"{log.name}.*")),
          "worker sidecar files were not merged back into the main log")
    aggregate, events = obs_api()
    tree = aggregate.build_span_tree(events.read_run_events(log))
    check(not tree.orphans, f"orphan spans in trace: {[n.name for n in tree.orphans]}")
    check(not tree.unclosed, f"unclosed spans in trace: {[r.get('name') for r in tree.unclosed]}")
    runs = [n for n in tree.by_id.values() if n.name == "campaign.run"]
    check(len(runs) == 1, f"expected exactly one campaign.run span, found {len(runs)}")
    root = runs[0]
    shards = [n for n in tree.by_id.values() if n.name == "campaign.shard"]
    check(len(shards) == OBS_SHARDS,
          f"expected {OBS_SHARDS} worker shard spans, found {len(shards)}")

    def descends_from_run(node) -> bool:
        while node.parent_id in tree.by_id:
            node = tree.by_id[node.parent_id]
            if node is root:
                return True
        return False

    stray = [n.span_id for n in shards if not descends_from_run(n)]
    check(not stray, f"{len(stray)} worker shard spans do not descend from the run span")
    off_trace = [n.span_id for n in shards if n.trace_id != root.trace_id]
    check(not off_trace, f"{len(off_trace)} worker spans on a foreign trace id")
    pids = sorted({n.pid for n in shards})
    check(root.pid not in pids and len(pids) >= 2,
          f"expected >=2 distinct worker PIDs, saw {pids}")
    agg = aggregate_of(log)
    run.kept.update(log=log, run_wall=root.duration, aggregate=agg)
    print(f"      complete tree: {len(tree.by_id)} spans, workers {pids}, no orphans")
    tree_numbers = {
        "spans": len(tree.by_id), "shards": len(shards), "worker_pids": pids,
        "run_wall_seconds": root.duration,
    }
    return {"tree": tree_numbers, "aggregate": agg}


def obs_surfaces(run: Run) -> dict:
    """``repro-stats`` timeline, flame, critical-path and stores render the
    log; the aggregate wall brackets the run span under the root spans,
    the accuracy_sweep phase brackets the run span, and the critical path
    ends sweep -> run -> worker -> shard."""
    log, agg, run_wall = run.kept["log"], run.kept["aggregate"], run.kept["run_wall"]
    for sub in ("timeline", "flame", "critical-path", "stores"):
        run.run(f"repro-stats {sub}", "-m", STATS, sub, log)
    root_total = sum(r["duration_seconds"] for r in agg["roots"])
    check(run_wall <= agg["wall_seconds"] <= root_total * 1.05,
          f"aggregate wall {agg['wall_seconds']:.3f}s does not bracket the run span "
          f"({run_wall:.3f}s) under the root spans ({root_total:.3f}s)")
    sweep_total = agg["phases"]["accuracy_sweep"]["total_seconds"]
    check(run_wall <= sweep_total <= agg["wall_seconds"] * 1.05,
          f"accuracy_sweep phase total {sweep_total:.3f}s inconsistent with run span "
          f"{run_wall:.3f}s / wall {agg['wall_seconds']:.3f}s")
    names = [step["name"] for step in agg["critical_path"]]
    # The figures CLI adds a target-level root span above the sweep.
    check(names[-4:] == ["accuracy_sweep", "campaign.run", "campaign.worker", "campaign.shard"],
          f"critical path has unexpected shape: {names}")
    print(f"      wall {agg['wall_seconds']:.3f}s, critical path {names}")
    return {"wall_seconds": agg["wall_seconds"], "critical_path": names}


def obs_baseline(run: Run) -> dict:
    """``repro-stats regress --counters-only`` against the committed
    ``results/obs_baseline.json``: the machine-independent gate (shard
    counts summed over the workers' run summaries, retries and store
    totals must match exactly).  With ``--write-baseline`` this stage
    rewrites that file from the sweep instead, counters only: timings are
    zeroed so nobody mistakes them for comparable numbers."""
    if run.write_baseline:
        aggregate, _ = obs_api()
        snapshot = aggregate.baseline_snapshot(run.kept["aggregate"])
        snapshot["wall_seconds"] = 0.0
        snapshot["phases"] = {}
        OBS_BASELINE.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"      baseline written: {OBS_BASELINE.relative_to(REPO_ROOT)}")
        return {"written": str(OBS_BASELINE.relative_to(REPO_ROOT))}
    run.run("counters gate against the committed baseline", "-m", STATS, "regress",
            run.kept["log"], "--baseline", OBS_BASELINE, "--counters-only")
    print("      counters match the committed baseline")
    return {"counters": json.loads(OBS_BASELINE.read_text())["counters"]}


def obs_slowdown(run: Run) -> dict:
    """A straggler injected through ``REPRO_CAMPAIGN_SLOW_CELL`` must make
    ``repro-stats regress`` exit non-zero against a timing baseline
    written from the clean sweep, with a wall violation, and the
    straggler report must name the slow shard: a gate that cannot trip
    gates nothing.  The stall is +150% of the measured wall, far past the
    25% threshold, so it trips on any machine."""
    log, agg = run.kept["log"], run.kept["aggregate"]
    timing = run.path("timing_baseline.json")
    run.run("writing the timing baseline", "-m", STATS, "regress", log, "--baseline", timing,
            "--write-baseline")
    slow_seconds = max(2.0, 1.5 * agg["wall_seconds"])
    slow_log = traced_sweep(run, "slow", REPRO_CAMPAIGN_SLOW_CELL=SLOW_CELL,
                            REPRO_CAMPAIGN_SLOW_SECONDS=f"{slow_seconds:.1f}")
    proc = run.run(f"regress over a {slow_seconds:.1f}s injected straggler", "-m", STATS,
                   "regress", slow_log, "--baseline", timing, "--json", ok=False)
    verdict = json.loads(proc.stdout)
    kinds = sorted({v["kind"] for v in verdict["violations"]})
    check("wall" in kinds, f"slowdown verdict missing the wall violation: {verdict}")
    slowest = aggregate_of(slow_log)["stragglers"]["slowest"][0]
    check(SLOW_CELL in str(slowest.get("shard")),
          f"straggler report names the wrong shard: {slowest}")
    print(f"      gate tripped ({kinds}); straggler identified as {slowest['shard']}")
    return {"verdict": verdict, "straggler": slowest["shard"]}


def obs_warm_store(run: Run) -> dict:
    """A cold then a warm sweep over one result store: the store events
    (``repro-stats stores``) and the run summary's counters both count a
    hit for every shard of the warm sweep."""
    store = {"REPRO_RESULT_STORE": str(run.path("store"))}
    traced_sweep(run, "cold-store", **store)
    warm = aggregate_of(traced_sweep(run, "warm-store", **store))
    result = warm["stores"].get("result") or {}
    check(result.get("hits", 0) == OBS_SHARDS,
          f"warm run should hit all {OBS_SHARDS} cells: {result}")
    check(warm["counters"].get("result_store.hits") == OBS_SHARDS,
          f"run summary disagrees with store events: {warm['counters']}")
    print(f"      warm hits {result['hits']}/{OBS_SHARDS}, rollup consistent")
    return result


# -- the service drill -----------------------------------------------------------

SERVICE_TARGET = "service_drill"
SERVICE_SPEC = {
    "schema": 1,
    "target": SERVICE_TARGET,
    "mode": "sweep",
    "title": "Service drill sweep",
    "grids": [
        {"kind": "accuracy", "families": ["gshare", "bimodal"], "budgets": [2048, 4096],
         "benchmarks": ["gcc"]}
    ],
}
#: Conservative loadtest floor (req/s) for shared runners; the 10k req/s
#: claim is the gated benchmark ``benchmarks/test_service_throughput.py``.
LOAD_FLOOR = 2_000


def request(port: int, method: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, None if body is None else json.dumps(body))
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def request_json(port: int, method: str, path: str, body: dict | None = None):
    status, payload = request(port, method, path, body)
    return status, json.loads(payload)


def service_boot(run: Run) -> dict:
    """Boot ``repro-serve`` on an ephemeral port with its own trace store,
    result store and event log; ``/healthz`` answers 200 before any job
    exists."""
    run.env.update(
        REPRO_TRACE_STORE=str(run.path("traces")),
        REPRO_RESULT_STORE=str(run.path("results")),
        REPRO_LOG=str(run.path("events.jsonl")),
    )
    daemon = run.spawn("-m", "repro.service.daemon", "--data-dir", run.path("svc"),
                       "--port", "0", "--workers", "2")
    line = daemon.stdout.readline()
    check("listening on" in line, f"daemon did not announce itself: {line!r}")
    port = int(line.rsplit(":", 1)[1].split()[0])
    status, health = request_json(port, "GET", "/healthz")
    check(status == 200 and health.get("ok") is True, f"healthz answered {status}: {health}")
    run.kept.update(daemon=daemon, port=port)
    print(f"      listening on port {port}")
    return {"port": port}


def service_roundtrip(run: Run) -> dict:
    """submit -> long-poll -> fetch: the spec completes, its figure and
    ``GET /v1/results/<digest>`` both answer 200 with the same bytes, and
    those are what ``repro-figures --config`` renders from the same
    stores: the serving layer adds nothing and loses nothing."""
    port = run.kept["port"]
    status, doc = request_json(port, "POST", "/v1/jobs", SERVICE_SPEC)
    check(status == 202, f"submit answered {status}: {doc}")
    job_id = doc["job_id"]
    deadline = time.time() + 300
    while True:
        status, doc = request_json(port, "GET", f"/v1/jobs/{job_id}?wait=10")
        if doc["state"] not in ("queued", "running"):
            break
        check(time.time() <= deadline, f"job never settled: {doc}")
    check(doc["state"] == "completed", f"job settled as {doc['state']}: {doc}")
    status, served = request(port, "GET", f"/v1/jobs/{job_id}/figure")
    check(status == 200, f"figure fetch answered {status}")
    digest = doc["figure_digest"]
    status, via_digest = request(port, "GET", f"/v1/results/{digest}")
    check(status == 200, f"digest fetch answered {status}")
    same_bytes(via_digest, served, "digest fetch")
    config = run.path("spec.json")
    config.write_text(json.dumps(SERVICE_SPEC))
    run.figures("repro-figures --config", "--config", config, "--output-dir", run.path("cli-out"))
    same_bytes(served + b"\n", run.path("cli-out") / f"{SERVICE_TARGET}.txt",
               "served figure (plus the CLI's newline)")
    run.kept["digest"] = digest
    print(f"      job {job_id[:12]} completed; bytes match the CLI")
    return {"job_id": job_id, "figure_digest": digest, "byte_identical": True}


def service_cache_hit(run: Run) -> dict:
    """Resubmitting the same spec answers 200/completed with zero new
    predictor builds on ``/metrics``."""
    port = run.kept["port"]
    _, before = request_json(port, "GET", "/metrics")
    status, doc = request_json(port, "POST", "/v1/jobs", SERVICE_SPEC)
    check(status == 200 and doc["state"] == "completed",
          f"resubmit was not a completed cache hit: {status} {doc}")
    _, after = request_json(port, "GET", "/metrics")
    delta = after["predictor_builds"] - before["predictor_builds"]
    check(delta == 0, f"cache-hit resubmission built {delta} predictors")
    run.kept["builds"] = after["predictor_builds"]
    return {"predictor_builds_delta": delta}


def service_loadtest(run: Run) -> dict:
    """``scripts/service_loadtest.py`` hammers the cached digest and must
    clear LOAD_FLOOR, with zero predictor builds during the load."""
    port = run.kept["port"]
    proc = run.run(
        "loadtest (below the floor or errored)", REPO_ROOT / "scripts" / "service_loadtest.py",
        "--port", port, "--path", f"/v1/results/{run.kept['digest']}", "--connections", "4",
        "--pipeline", "16", "--duration", "5", "--floor", LOAD_FLOOR, timeout=180,
    )
    load = json.loads(proc.stdout)
    _, final = request_json(port, "GET", "/metrics")
    delta = final["predictor_builds"] - run.kept["builds"]
    check(delta == 0, f"load phase built {delta} predictors")
    run.kept["requests"] = load["requests"]
    print(f"      {load['requests_per_second']:.0f} req/s (p99 {load['p99_ms']:.2f}ms), "
          f"zero builds")
    return load


def service_drain(run: Run) -> dict:
    """SIGTERM drains the daemon: exit 0 within 60 s, and no ``*.tmp.*``
    staging file left anywhere under its data dir."""
    daemon = run.kept["daemon"]
    daemon.send_signal(signal.SIGTERM)
    try:
        code = daemon.wait(timeout=60)
    except subprocess.TimeoutExpired:
        raise DrillFailure("daemon did not exit within 60s of SIGTERM") from None
    check(code == 0, f"daemon exited {code} on SIGTERM\n{daemon.stderr.read()}")
    torn = [str(p) for p in run.path("svc").rglob("*") if ".tmp." in p.name]
    check(not torn, f"torn staging files survived the drain: {torn}")
    print("      SIGTERM: exit 0, no torn files")
    return {"exit_code": code, "torn_files": 0}


def service_telemetry(run: Run) -> dict:
    """``repro-stats service`` over the daemon's event log counts a start,
    the request spans, and an answer from memory for every loadtest fetch
    (each repeats a settled reply)."""
    rollup = run.reply("repro-stats service", STATS, "service", run.env["REPRO_LOG"])
    spans = sum(entry["count"] for entry in rollup.get("requests", {}).values())
    cached = rollup.get("response_cache_hits", 0)
    check(rollup.get("starts", 0) >= 1 and spans >= 3, f"rollup missed the traffic: {rollup}")
    check(cached >= run.kept["requests"],
          f"rollup counts {cached} answers from memory, fewer than the "
          f"{run.kept['requests']} repeated fetches of the loadtest")
    print(f"      {spans} request spans, {cached} answers from memory rolled up")
    return {"starts": rollup["starts"], "stops": rollup["stops"], "request_spans": spans,
            "response_cache_hits": cached}


# -- the declarations and the runner -----------------------------------------------

DRILLS: dict[str, list[Stage]] = {
    "trace-store": TRACE_STORE.stages(),
    "result-store": RESULT_STORE.stages(),
    "campaign": [
        ("serial", campaign_serial),
        ("concurrent", campaign_concurrent),
        ("crash", campaign_crash),
        ("rerun", campaign_rerun),
        ("figure-serial", figure_serial),
        ("figure-jobs2", figure_jobs2),
        ("figure-crash", figure_crash),
        ("figure-resume", figure_resume),
    ],
    "obs": [
        ("sweep", obs_sweep),
        ("surfaces", obs_surfaces),
        ("baseline", obs_baseline),
        ("slowdown", obs_slowdown),
        ("warm-store", obs_warm_store),
    ],
    "service": [
        ("boot", service_boot),
        ("roundtrip", service_roundtrip),
        ("cache-hit", service_cache_hit),
        ("loadtest", service_loadtest),
        ("drain", service_drain),
        ("telemetry", service_telemetry),
    ],
}


def run_drill(name: str, write_baseline: bool) -> dict:
    """Run one drill's stages in order, up to the first that fails."""
    stages = DRILLS[name]
    report: dict = {"ok": False, "stages": {}}
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=f"drill-{name}-") as tmp:
        run = Run(Path(tmp), write_baseline)
        try:
            for index, (stage, step) in enumerate(stages, 1):
                print(f"[{name} {index}/{len(stages)}] {stage}", flush=True)
                try:
                    report["stages"][stage] = step(run) or {}
                except Exception as error:  # the drill's boundary: report and move on
                    report.update(failed_stage=stage, error=str(error))
                    print(f"FAIL {name}/{stage}: {error}", file=sys.stderr)
                    proc = getattr(error, "proc", None)
                    if proc is not None:
                        print(f"--- exit {proc.returncode} ---\n--- stdout ---\n{proc.stdout}"
                              f"\n--- stderr ---\n{proc.stderr}", file=sys.stderr)
                    elif not isinstance(error, DrillFailure):
                        traceback.print_exc()
                    break
            else:
                report["ok"] = True
        finally:
            run.close()
    report["seconds"] = time.perf_counter() - started
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("drills", nargs="*", metavar="DRILL",
                        help=f"drills to run, in order (default: all of {', '.join(DRILLS)})")
    parser.add_argument("--report-out", metavar="FILE",
                        help="write every drill's per-stage numbers as JSON to FILE")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"the obs drill rewrites {OBS_BASELINE.relative_to(REPO_ROOT)} "
                        "instead of gating on it")
    args = parser.parse_args(argv)
    unknown = [name for name in args.drills if name not in DRILLS]
    if unknown:
        parser.error(f"unknown drill(s) {', '.join(unknown)}; declared: {', '.join(DRILLS)}")
    names = args.drills or list(DRILLS)
    if args.write_baseline and "obs" not in names:
        parser.error("--write-baseline rewrites the obs drill's baseline; run the obs drill")

    reports = {name: run_drill(name, args.write_baseline) for name in names}
    failed = [f"{name} (stage {r['failed_stage']})" for name, r in reports.items() if not r["ok"]]
    if args.report_out:
        Path(args.report_out).write_text(
            json.dumps({"ok": not failed, "drills": reports}, indent=2) + "\n"
        )
        print(f"report -> {args.report_out}")
    for name, report in reports.items():
        print(f"{'ok  ' if report['ok'] else 'FAIL'} {name} ({report['seconds']:.1f}s)")
    if failed:
        print(f"drills failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"OK: {len(reports)} drill(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
