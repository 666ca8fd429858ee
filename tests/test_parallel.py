"""Parallel and resumable sweeps: the campaign executor under the sweeps.

Serial/parallel byte-identity for the full grids is asserted in
``test_conformance_matrix.py``; here we exercise what ``--jobs`` and
``--run-dir`` add — worker-count resolution, the campaign record a run
directory keeps, checkpoint resume after a simulated crash, the retry
budget, config pinning, reclaiming a dead worker's claim, and the
telemetry workers leave in the event log.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.common import settings
from repro.common.atomic import HOST
from repro.common.errors import ConfigurationError
from repro.harness.campaign import (
    CampaignLayout,
    CheckpointStore,
    Shard,
    ShardOutcome,
    SweepExecutionError,
    WorkQueue,
    class_counts,
    classify_shard,
    load_campaign,
    resolve_max_retries,
    scan,
    shard_from_dict,
    shard_grid,
)
from repro.harness import sweep
from repro.harness.sweep import accuracy_sweep, ipc_sweep
from repro.obs.aggregate import aggregate_run
from repro.obs.events import read_run_events
from repro.workloads.spec2000 import clear_trace_cache, trace_cache_info
from tests.conftest import exited_pid

REPO_ROOT = Path(__file__).resolve().parent.parent

FAMILIES = ["gshare", "bimodal"]
BUDGETS = [2 * 1024]
BENCHMARKS = ["gcc", "eon"]
INSTRUCTIONS = 20_000

SWEEP_KWARGS = dict(
    families=FAMILIES,
    budgets=BUDGETS,
    benchmarks=BENCHMARKS,
    instructions=INSTRUCTIONS,
)


def event_log(tmp_path, monkeypatch, name: str = "events.jsonl") -> Path:
    """Point REPRO_LOG at a fresh file owned by this process."""
    log = tmp_path / name
    monkeypatch.setenv("REPRO_LOG", str(log))
    monkeypatch.setenv("REPRO_LOG_OWNER_PID", str(os.getpid()))
    return log


def counters_of(log: Path) -> dict:
    return aggregate_run(read_run_events(log))["counters"]


def run_in_session(args: list[str], env: dict, timeout: float):
    """Run a command in its own session; on timeout its whole process
    group — the workers it forked included — is killed."""
    proc = subprocess.Popen(
        args, cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


def checkpoint_mtimes(run_dir: Path) -> dict[str, int]:
    return {
        path.name: path.stat().st_mtime_ns
        for path in (run_dir / "shards").glob("*.json")
        if not path.name.endswith(".failed.json")
    }


# -- configuration resolution --------------------------------------------------


def sweep_jobs(monkeypatch, jobs: int | None) -> int:
    """The worker count ``accuracy_sweep(jobs=jobs)`` hands the executor."""
    seen = []

    def execute_sweep(shards, cfg, jobs, **kwargs):
        seen.append(jobs)
        raise InterruptedError

    monkeypatch.setattr(sweep, "execute_sweep", execute_sweep)
    with pytest.raises(InterruptedError):
        accuracy_sweep(**SWEEP_KWARGS, jobs=jobs)
    return seen[0]


class TestJobResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert sweep_jobs(monkeypatch, 3) == 3

    def test_explicit_argument_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            accuracy_sweep(**SWEEP_KWARGS, jobs=0)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert sweep_jobs(monkeypatch, None) == 5

    @pytest.mark.parametrize("raw", ["auto", "0", "AUTO"])
    def test_default_jobs_auto(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        assert settings.get("REPRO_JOBS") == (os.cpu_count() or 1)

    def test_default_jobs_defaults_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert settings.get("REPRO_JOBS") == 1

    @pytest.mark.parametrize("raw", ["three", "1.5", "-2"])
    def test_default_jobs_rejects_garbage(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(ConfigurationError):
            settings.get("REPRO_JOBS")

    def test_max_retries_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
        assert resolve_max_retries() == 2

    def test_max_retries_env_and_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "9")
        assert resolve_max_retries() == 9
        assert resolve_max_retries(0) == 0

    @pytest.mark.parametrize("raw", ["many", "-1"])
    def test_max_retries_rejects_garbage(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_MAX_RETRIES", raw)
        with pytest.raises(ConfigurationError):
            settings.get("REPRO_MAX_RETRIES")


def test_shard_key_is_stable_and_filename_safe():
    assert Shard("accuracy", "gcc", "gshare", 2048).key == "accuracy__gcc__gshare__2048"
    assert (
        Shard("ipc", "eon", "perceptron", 4096, "overriding").key
        == "ipc__eon__perceptron__4096__overriding"
    )


def test_shard_grid_matches_serial_iteration_order():
    grid = shard_grid("accuracy", FAMILIES, [1024, 2048], BENCHMARKS)
    assert [(s.benchmark, s.family, s.budget_bytes) for s in grid] == [
        (benchmark, family, budget)
        for benchmark in BENCHMARKS
        for family in FAMILIES
        for budget in [1024, 2048]
    ]


# -- serial/parallel equivalence ----------------------------------------------


def test_ipc_sweep_parallel_matches_serial():
    kwargs = dict(SWEEP_KWARGS, mode="overriding", families=["gshare", "perceptron"])
    assert ipc_sweep(**kwargs, jobs=1) == ipc_sweep(**kwargs, jobs=2)


def test_parallel_sweep_writes_campaign_record(tmp_path):
    """A --run-dir sweep leaves a campaign: the pinned universe and config,
    one checkpoint per cell, an empty queue, no claims — and nothing else."""
    run_dir = tmp_path / "run"
    cells = accuracy_sweep(**SWEEP_KWARGS, jobs=2, run_dir=str(run_dir))
    assert len(cells) == len(FAMILIES) * len(BUDGETS) * len(BENCHMARKS)
    spec = load_campaign(str(run_dir))
    assert [shard_from_dict(s) for s in spec["shards"]] == shard_grid(
        "accuracy", FAMILIES, BUDGETS, BENCHMARKS
    )
    assert spec["cfg"]["accuracy"]["instructions"] == INSTRUCTIONS
    assert class_counts(scan(str(run_dir)))["completed"] == 4
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "campaign.json", "claims", "queue", "shards",
    ]
    assert not list((run_dir / "queue").iterdir())
    assert not list((run_dir / "claims").iterdir())


def test_bare_jobs_leaves_no_run_dir_behind(tmp_path, monkeypatch):
    """``jobs > 1`` without a run dir drains a private campaign directory
    and removes it afterwards."""
    import tempfile

    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    assert accuracy_sweep(**SWEEP_KWARGS, jobs=2) == accuracy_sweep(**SWEEP_KWARGS, jobs=1)
    assert list(scratch.iterdir()) == []


def test_figure_run_dir_is_a_scannable_campaign(tmp_path):
    """``repro-figures figure7 --jobs 2 --run-dir DIR`` plans both panels'
    sweeps into one campaign: ``repro-campaign scan`` classifies every cell
    of both modes completed, and ``rerun --status failed`` runs there."""
    run_dir = tmp_path / "run"
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO_ROOT / "src"),
        REPRO_SCALE="0.02",
        REPRO_BENCHMARKS="gcc",
    )
    for key in ("REPRO_JOBS", "REPRO_RUN_DIR", "REPRO_LOG", "REPRO_LOG_OWNER_PID"):
        env.pop(key, None)

    def run(module: str, *args: str):
        proc = run_in_session([sys.executable, "-m", module, *args], env, 300)
        assert proc.returncode == 0, proc.stderr
        return proc

    run("repro.harness.cli", "figure7", "--jobs", "2", "--run-dir", str(run_dir))
    report = json.loads(
        run("repro.harness.cli_campaign", "scan", str(run_dir), "--json").stdout
    )
    modes = {row["shard"].rsplit("__", 1)[1] for row in report["shards"]}
    assert modes == {"ideal", "overriding"}
    assert report["counts"]["completed"] == report["cells"] > 0
    rerun = json.loads(
        run(
            "repro.harness.cli_campaign", "rerun", str(run_dir),
            "--status", "failed", "--json",
        ).stdout
    )
    assert rerun["planned"]["execute"] == 0
    assert rerun["rows"] == report["cells"]


# -- crash / resume ------------------------------------------------------------


def test_abort_then_resume_skips_checkpointed_shards(tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    kwargs = dict(SWEEP_KWARGS, jobs=1, run_dir=str(run_dir))

    monkeypatch.setenv("REPRO_CAMPAIGN_ABORT_AFTER", "2")
    with pytest.raises(RuntimeError, match="REPRO_CAMPAIGN_ABORT_AFTER"):
        accuracy_sweep(**kwargs)
    counts = class_counts(scan(str(run_dir)))
    assert counts["completed"] == 2
    assert counts["partial"] == 1  # the claim the crashed worker held
    assert counts["missing"] == 1

    mtimes = checkpoint_mtimes(run_dir)
    assert len(mtimes) == 2

    monkeypatch.delenv("REPRO_CAMPAIGN_ABORT_AFTER")
    log = event_log(tmp_path, monkeypatch)
    cells = accuracy_sweep(**kwargs)
    # The checkpointed shards were skipped, not recomputed; the crashed
    # worker's claim was reclaimed at once (its loop is gone).
    assert counters_of(log)["shards.executed"] == 2
    for name, mtime in mtimes.items():
        assert (run_dir / "shards" / name).stat().st_mtime_ns == mtime
    # Merged results match a fresh uncheckpointed run exactly.
    assert cells == accuracy_sweep(**SWEEP_KWARGS, jobs=1)


def test_crash_then_resume_in_a_fresh_process_does_not_wait(tmp_path):
    """A ``--jobs 2 --run-dir`` run crashes (REPRO_CAMPAIGN_ABORT_AFTER),
    leaving claims held by its dead workers; ``--resume`` in a fresh
    process, with the default 600 s stale threshold, reclaims them at once
    and renders byte-identical output."""
    config = tmp_path / "grid.json"
    config.write_text(
        json.dumps(
            {
                "schema": 1,
                "target": "resume_grid",
                "mode": "sweep",
                "title": "resume drill grid",
                "grids": [
                    {"kind": "accuracy", "families": ["gshare", "bimodal"],
                     "budgets": [2048, 4096]}
                ],
            }
        )
    )
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO_ROOT / "src"),
        REPRO_SCALE="0.02",
        REPRO_BENCHMARKS="gcc,eon",
    )
    for key in (
        "REPRO_JOBS", "REPRO_RUN_DIR", "REPRO_LOG", "REPRO_LOG_OWNER_PID",
        "REPRO_CAMPAIGN_STALE_SECONDS",
    ):
        env.pop(key, None)

    def figures(*args: str, **extra: str):
        return run_in_session(
            [sys.executable, "-m", "repro.harness.cli", "--config", str(config), *args],
            dict(env, **extra),
            300,
        )

    serial = figures("--jobs", "1")
    assert serial.returncode == 0, serial.stderr
    run_dir = tmp_path / "run"
    crashed = figures(
        "--jobs", "2", "--run-dir", str(run_dir), REPRO_CAMPAIGN_ABORT_AFTER="1"
    )
    assert crashed.returncode != 0
    assert list((run_dir / "claims").iterdir())  # held by dead workers
    started = time.monotonic()
    resumed = figures("--jobs", "2", "--resume", str(run_dir))
    assert resumed.returncode == 0, resumed.stderr
    assert time.monotonic() - started < 120
    assert resumed.stdout == serial.stdout


def test_resume_refuses_different_config(tmp_path):
    run_dir = str(tmp_path / "run")
    accuracy_sweep(**SWEEP_KWARGS, jobs=1, run_dir=run_dir)
    with pytest.raises(ConfigurationError, match="different"):
        accuracy_sweep(
            **dict(SWEEP_KWARGS, instructions=INSTRUCTIONS * 2),
            jobs=1,
            run_dir=run_dir,
        )


def test_one_run_dir_grows_across_sweeps(tmp_path):
    """Sweeps planned into one directory append to its universe; an IPC
    sweep pins its own kind's config next to the accuracy one."""
    run_dir = str(tmp_path / "run")
    accuracy_sweep(**SWEEP_KWARGS, jobs=1, run_dir=run_dir)
    accuracy_sweep(**dict(SWEEP_KWARGS, families=["bimode"]), jobs=1, run_dir=run_dir)
    ipc_sweep(["gshare"], BUDGETS, "ideal", ["gcc"], INSTRUCTIONS, jobs=1, run_dir=run_dir)
    spec = load_campaign(run_dir)
    assert sorted(spec["cfg"]) == ["accuracy", "ipc"]
    assert len(spec["shards"]) == 4 + 2 + 1
    assert class_counts(scan(run_dir))["completed"] == 7


def test_checkpoint_store_ignores_corrupt_and_mismatched_files(tmp_path):
    store = CheckpointStore(str(tmp_path))
    shard = Shard("accuracy", "gcc", "gshare", 2048)
    path = tmp_path / "shards" / f"{shard.key}.json"
    assert store.load(shard) is None  # absent
    path.write_text("{not json")
    assert store.load(shard) is None  # corrupt
    path.write_text(json.dumps({"schema": -1, "shard": {}, "payload": {}}))
    assert store.load(shard) is None  # wrong schema


def test_campaign_json_schema_mismatch_is_refused(tmp_path):
    (tmp_path / "campaign.json").write_text(
        json.dumps({"schema": -1, "cfg": {}, "shards": []})
    )
    with pytest.raises(ConfigurationError, match="schema"):
        accuracy_sweep(**SWEEP_KWARGS, jobs=1, run_dir=str(tmp_path))


# -- retries -------------------------------------------------------------------


def test_injected_failure_is_retried_and_recorded(tmp_path, monkeypatch):
    log = event_log(tmp_path, monkeypatch)
    monkeypatch.setenv("REPRO_CAMPAIGN_FAIL_CELL", "gcc__gshare")
    monkeypatch.setenv("REPRO_CAMPAIGN_FAIL_ATTEMPTS", "2")
    cells = accuracy_sweep(**SWEEP_KWARGS, jobs=2, max_retries=2)
    retries = [e for e in read_run_events(log) if e["event"] == "retry"]
    assert [e["shard"] for e in retries] == ["accuracy__gcc__gshare__2048"] * 2
    assert [e["attempt"] for e in retries] == [0, 1]
    assert counters_of(log)["retries"] == 2
    # Retried results are still byte-identical to the clean serial run.
    monkeypatch.delenv("REPRO_CAMPAIGN_FAIL_CELL")
    monkeypatch.delenv("REPRO_CAMPAIGN_FAIL_ATTEMPTS")
    assert cells == accuracy_sweep(**SWEEP_KWARGS, jobs=1)


def test_exhausted_retry_budget_fails_the_run(monkeypatch, tmp_path):
    run_dir = tmp_path / "run"
    monkeypatch.setenv("REPRO_CAMPAIGN_FAIL_CELL", "gcc__gshare")
    monkeypatch.setenv("REPRO_CAMPAIGN_FAIL_ATTEMPTS", "99")
    with pytest.raises(SweepExecutionError, match="max_retries=1"):
        accuracy_sweep(**SWEEP_KWARGS, jobs=1, max_retries=1, run_dir=str(run_dir))
    marker = json.loads(
        (run_dir / "shards" / "accuracy__gcc__gshare__2048.failed.json").read_text()
    )
    assert marker["attempts"] == 2  # initial attempt + one retry, both failed
    counts = class_counts(scan(str(run_dir)))
    assert counts["failed"] == 1 and counts["completed"] == 3


def test_exhausted_cell_keeps_the_rest_of_the_run(tmp_path, monkeypatch):
    """One cell past its budget fails the sweep, but every other cell the
    workers computed stays checkpointed; a resume executes exactly the
    failed cell and matches the serial sweep."""
    kwargs = dict(
        families=["gshare", "bimodal", "bimode", "gshare_fast"],
        budgets=[2048, 4096],
        benchmarks=BENCHMARKS,
        instructions=INSTRUCTIONS,
    )
    run_dir = tmp_path / "run"
    monkeypatch.setenv("REPRO_CAMPAIGN_FAIL_CELL", "accuracy__gcc__gshare__2048")
    with pytest.raises(SweepExecutionError, match="accuracy__gcc__gshare__2048"):
        accuracy_sweep(**kwargs, jobs=2, run_dir=str(run_dir), max_retries=0)
    counts = class_counts(scan(str(run_dir)))
    assert counts["completed"] == 15 and counts["failed"] == 1

    monkeypatch.delenv("REPRO_CAMPAIGN_FAIL_CELL")
    log = event_log(tmp_path, monkeypatch)
    resumed = accuracy_sweep(**kwargs, jobs=2, run_dir=str(run_dir))
    assert counters_of(log)["shards.executed"] == 1
    assert resumed == accuracy_sweep(**kwargs, jobs=1)


# -- dead owners ---------------------------------------------------------------


class TestDeadOwners:
    @pytest.fixture
    def queue(self, tmp_path):
        return WorkQueue(CampaignLayout(str(tmp_path)).ensure())

    def write_claim(self, tmp_path, **claim):
        path = tmp_path / "claims" / "cell.json"
        path.write_text(json.dumps({"owner": "w0", "ts": time.time(), **claim}))

    def test_claim_of_an_exited_local_process_is_reclaimed_at_once(
        self, queue, tmp_path
    ):
        import socket

        child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                               capture_output=True, text=True, check=True)
        self.write_claim(tmp_path, host=socket.gethostname(), pid=int(child.stdout))
        assert queue.try_claim("cell", "w1", stale_seconds=600) == "stolen"

    def test_claim_of_a_finished_worker_loop_here_is_reclaimed_at_once(
        self, queue, tmp_path
    ):
        gone = WorkQueue(CampaignLayout(str(tmp_path)))
        assert gone.try_claim("cell", "w0", stale_seconds=600) == "claimed"
        assert queue.try_claim("cell", "w1", stale_seconds=600) is None  # live loop
        gone.retire()
        assert queue.try_claim("cell", "w1", stale_seconds=600) == "stolen"

    def test_other_hosts_keep_the_timeout(self, queue, tmp_path):
        self.write_claim(tmp_path, host="elsewhere.invalid", pid=1)
        assert queue.try_claim("cell", "w1", stale_seconds=600) is None

    def test_killed_worker_is_reclaimed_without_waiting(self, tmp_path):
        """SIGKILL the worker holding a slowed cell mid-run: a surviving
        worker reclaims the claim at once (one retry charged), far inside
        the 600 s stale threshold, and the cells equal the serial sweep."""
        key = "accuracy__gcc__bimodal__2048"
        log = tmp_path / "events.jsonl"
        run_dir = tmp_path / "run"
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            REPRO_LOG=str(log),
            REPRO_CAMPAIGN_SLOW_CELL=key,
            REPRO_CAMPAIGN_SLOW_SECONDS="3",
        )
        for name in ("REPRO_LOG_OWNER_PID", "REPRO_CAMPAIGN_STALE_SECONDS"):
            env.pop(name, None)
        code = (
            "import json, sys\n"
            "from repro.harness.sweep import accuracy_sweep\n"
            f"cells = accuracy_sweep(**{SWEEP_KWARGS!r}, jobs=2, run_dir=sys.argv[1])\n"
            "print(json.dumps([c.misprediction_percent for c in cells]))\n"
        )
        started = time.monotonic()
        sweep = subprocess.Popen(
            [sys.executable, "-c", code, str(run_dir)],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            claim = run_dir / "claims" / f"{key}.json"
            while not claim.exists() and time.monotonic() - started < 60:
                time.sleep(0.005)
            os.kill(json.loads(claim.read_text())["pid"], signal.SIGKILL)
            out, err = sweep.communicate(timeout=120)
        finally:
            if sweep.poll() is None:
                os.killpg(sweep.pid, signal.SIGKILL)
                sweep.communicate()
        assert sweep.returncode == 0, err
        assert time.monotonic() - started < 60
        retries = [e for e in read_run_events(log) if e["event"] == "retry"]
        assert [e["shard"] for e in retries] == [key]
        serial = accuracy_sweep(**SWEEP_KWARGS, jobs=1)
        assert json.loads(out) == [cell.misprediction_percent for cell in serial]


# -- obs integration -----------------------------------------------------------


def test_parallel_counters_when_profiling(obs_enabled):
    accuracy_sweep(["bimodal"], BUDGETS, ["gcc"], instructions=INSTRUCTIONS, jobs=2)
    counters = obs_enabled.snapshot()["counters"]
    assert counters["campaign.cells_executed"] == 1


# -- trace store ---------------------------------------------------------------


class TestTraceStoreIntegration:
    @pytest.fixture
    def warm_store(self, tmp_path, monkeypatch):
        """A prewarmed store for the test grid, with the parent's LRU kept
        empty so forked workers must demonstrably hit the disk store."""
        from repro.workloads.spec2000 import warm_trace_store
        from repro.workloads.store import reset_store_stats

        store_dir = tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE_STORE", str(store_dir))
        clear_trace_cache()
        reset_store_stats()
        warm_trace_store(benchmarks=BENCHMARKS, instruction_counts=[INSTRUCTIONS])
        clear_trace_cache()
        reset_store_stats()
        yield store_dir
        clear_trace_cache()
        reset_store_stats()

    def test_workers_share_warm_store(self, warm_store, tmp_path, monkeypatch):
        """Every worker loads from the shared store — the workers' run
        summaries show store hits and zero misses (nothing regenerated)."""
        log = event_log(tmp_path, monkeypatch)
        accuracy_sweep(**SWEEP_KWARGS, jobs=2, run_dir=str(tmp_path / "run"))
        counters = counters_of(log)
        assert counters["trace_store.hits"] >= 2  # one per benchmark at least
        assert counters["trace_store.misses"] == 0
        assert counters["trace_store.corrupt"] == 0
        summaries = [
            e["summary"] for e in read_run_events(log)
            if e["event"] == "run_summary" and e["label"] == "campaign.worker"
        ]
        assert len(summaries) == 2
        assert sum(s["trace_store"]["hits"] for s in summaries) == (
            counters["trace_store.hits"]
        )

    def test_crash_resume_under_warm_store_matches_serial(
        self, warm_store, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "run"
        kwargs = dict(SWEEP_KWARGS, jobs=1, run_dir=str(run_dir))
        monkeypatch.setenv("REPRO_CAMPAIGN_ABORT_AFTER", "2")
        with pytest.raises(RuntimeError, match="REPRO_CAMPAIGN_ABORT_AFTER"):
            accuracy_sweep(**kwargs)
        monkeypatch.delenv("REPRO_CAMPAIGN_ABORT_AFTER")
        mtimes = checkpoint_mtimes(run_dir)
        assert len(mtimes) == 2
        resumed = accuracy_sweep(**kwargs)
        assert checkpoint_mtimes(run_dir).items() >= mtimes.items()
        # Byte-identical to the serial, storeless path.
        monkeypatch.delenv("REPRO_TRACE_STORE")
        clear_trace_cache()
        assert resumed == accuracy_sweep(**SWEEP_KWARGS, jobs=1)

    def test_parallel_store_counters_reach_obs(self, warm_store, obs_enabled):
        accuracy_sweep(**SWEEP_KWARGS, jobs=2)
        counters = obs_enabled.snapshot()["counters"]
        assert counters["trace_store.hits"] >= 2


# -- checkpoint atomicity ------------------------------------------------------


class TestCheckpointAtomicity:
    def test_checkpoint_write_leaves_no_staging_files(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        shard = Shard("accuracy", "gcc", "gshare", 2048)
        store.store(
            ShardOutcome(
                shard=shard, payload={"misprediction_percent": 1.0},
                duration_seconds=0.1, worker_pid=1,
            )
        )
        leftovers = [p for p in (tmp_path / "shards").iterdir() if ".tmp" in p.name]
        assert leftovers == []
        assert store.load(shard) is not None

    def test_checkpoint_killed_mid_write_is_ignored_on_resume(
        self, tmp_path, monkeypatch
    ):
        """A writer killed mid-write leaves only a staging file named with
        its (now exited) pid; resume neither crashes on it nor trusts it —
        the shard is simply re-executed."""
        run_dir = tmp_path / "run"
        shard_dir = run_dir / "shards"
        shard_dir.mkdir(parents=True)
        key = "accuracy__gcc__gshare__2048"
        # Half-written JSON under the staging name (the only artifact an
        # atomic writer can leave behind)...
        dead = f"{key}.json.tmp.{HOST}.{exited_pid()}.1"
        (shard_dir / dead).write_text('{"schema": 1, "payl')
        # ...and, belt-and-braces, torn JSON under a *final* name too
        # (pre-atomic layouts could produce this).
        (shard_dir / "accuracy__eon__gshare__2048.json").write_text('{"sch')
        log = event_log(tmp_path, monkeypatch)
        cells = accuracy_sweep(**SWEEP_KWARGS, jobs=1, run_dir=str(run_dir))
        assert counters_of(log)["shards.executed"] == 4  # nothing was trusted
        assert not list(shard_dir.glob("*.tmp.*"))
        assert cells == accuracy_sweep(**SWEEP_KWARGS, jobs=1)

    def test_torn_checkpoint_classifies_partial_and_reexecutes(
        self, tmp_path, monkeypatch
    ):
        """Fault injection: a checkpoint whose writer died mid-write (torn
        JSON under the final name, or only a staging sibling) must classify
        as ``partial`` — never ``completed`` — and the shard re-executes."""
        run_dir = tmp_path / "run"
        shard_dir = run_dir / "shards"
        shard_dir.mkdir(parents=True)
        layout = CampaignLayout(str(run_dir))
        grid = shard_grid("accuracy", FAMILIES, BUDGETS, BENCHMARKS)
        torn_final, torn_staging = grid[0], grid[1]
        # Torn JSON under the *final* checkpoint name...
        (shard_dir / f"{torn_final.key}.json").write_text('{"schema": 1, "payl')
        # ...and a shard that only ever got as far as its staging file.
        dead = f"{torn_staging.key}.json.tmp.{HOST}.{exited_pid()}.1"
        (shard_dir / dead).write_text("{")
        assert classify_shard(torn_final, layout=layout) == "partial"
        assert classify_shard(torn_staging, layout=layout) == "partial"

        log = event_log(tmp_path, monkeypatch)
        cells = accuracy_sweep(**SWEEP_KWARGS, jobs=1, run_dir=str(run_dir))
        # The torn shards were not trusted: all four executed.
        assert counters_of(log)["shards.executed"] == 4
        assert cells == accuracy_sweep(**SWEEP_KWARGS, jobs=1)
        # The re-executed checkpoints are whole again.
        for shard in (torn_final, torn_staging):
            assert classify_shard(shard, layout=layout) == "completed"


# -- trace cache ---------------------------------------------------------------


class TestTraceCache:
    def test_capacity_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert settings.get("REPRO_TRACE_CACHE") == 32
        monkeypatch.setenv("REPRO_TRACE_CACHE", "4")
        assert settings.get("REPRO_TRACE_CACHE") == 4

    @pytest.mark.parametrize("raw", ["tiny", "0", "-3"])
    def test_capacity_rejects_garbage(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TRACE_CACHE", raw)
        with pytest.raises(ConfigurationError):
            settings.get("REPRO_TRACE_CACHE")

    def test_hits_misses_and_eviction(self, monkeypatch):
        from repro.workloads.spec2000 import spec2000_trace

        clear_trace_cache()
        monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
        spec2000_trace("gcc", instructions=5_000)
        spec2000_trace("gcc", instructions=5_000)
        spec2000_trace("eon", instructions=5_000)  # evicts gcc
        info = trace_cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 2
        assert info["evictions"] == 1
        assert info["entries"] == 1
        clear_trace_cache()
        assert trace_cache_info()["entries"] == 0


# -- distributed tracing -------------------------------------------------------


class TestParallelTelemetry:
    def test_worker_spans_parent_to_run_trace(self, tmp_path, monkeypatch):
        """A --jobs 2 sweep with REPRO_LOG leaves one complete cross-process
        span tree: no orphans, every shard span under a worker span under
        the parent's campaign.run span, and wall times that agree."""
        from repro.obs.aggregate import build_span_tree
        from repro.obs.events import validate_event

        log = event_log(tmp_path, monkeypatch)
        accuracy_sweep(**SWEEP_KWARGS, jobs=2)

        events = read_run_events(log)
        assert events and all(validate_event(e) == [] for e in events)
        assert not list(log.parent.glob("events.jsonl.*"))  # sidecars merged

        tree = build_span_tree(events)
        assert not tree.orphans and not tree.unclosed
        run_spans = [n for n in tree.by_id.values() if n.name == "campaign.run"]
        assert len(run_spans) == 1
        run = run_spans[0]
        shard_spans = [n for n in tree.by_id.values() if n.name == "campaign.shard"]
        assert len(shard_spans) == len(FAMILIES) * len(BUDGETS) * len(BENCHMARKS)
        for shard in shard_spans:
            worker = tree.by_id[shard.parent_id]
            assert worker.name == "campaign.worker" and worker.pid == shard.pid
            assert worker.parent_id == run.span_id
        assert all(n.trace_id == run.trace_id for n in shard_spans)
        assert all(n.pid != run.pid for n in shard_spans)

        agg = aggregate_run(events)
        # The workers' run summaries agree with the tree.
        assert agg["counters"]["shards.executed"] == len(shard_spans)
        assert agg["counters"]["retries"] == 0
        # The aggregate's wall covers the root span within rounding.
        roots = [n for n in tree.roots]
        assert agg["wall_seconds"] == pytest.approx(
            max(r.duration for r in roots), rel=0.05
        )
        # Workers were seen and attributed busy time.
        assert agg["workers"]
        assert all(w["busy_seconds"] > 0 for w in agg["workers"].values())

    def test_retry_and_checkpoint_events_recorded(self, tmp_path, monkeypatch):
        log = event_log(tmp_path, monkeypatch)
        monkeypatch.setenv("REPRO_CAMPAIGN_FAIL_CELL", "gcc__gshare")
        monkeypatch.setenv("REPRO_CAMPAIGN_FAIL_ATTEMPTS", "1")
        run_dir = tmp_path / "run"
        accuracy_sweep(**SWEEP_KWARGS, jobs=2, run_dir=str(run_dir))
        events = read_run_events(log)
        retries = [e for e in events if e["event"] == "retry"]
        assert len(retries) == 1 and "gcc__gshare" in retries[0]["shard"]
        stored = [e for e in events if e["event"] == "checkpoint"]
        assert {e["action"] for e in stored} == {"store"}
        assert len(stored) == 4
        assert counters_of(log)["retries"] == 1

    def test_slow_shard_hook_injects_straggler(self, tmp_path, monkeypatch):
        log = event_log(tmp_path, monkeypatch)
        monkeypatch.setenv("REPRO_CAMPAIGN_SLOW_CELL", "eon__bimodal")
        monkeypatch.setenv("REPRO_CAMPAIGN_SLOW_SECONDS", "0.5")
        accuracy_sweep(**SWEEP_KWARGS, jobs=2)
        agg = aggregate_run(read_run_events(log))
        stragglers = agg["stragglers"]
        assert stragglers["slowest"][0]["shard"] == "accuracy__eon__bimodal__2048"
        assert stragglers["max_seconds"] >= 0.5
        # The critical path ends in the slowed shard.
        assert agg["critical_path"][-1]["shard"] == "accuracy__eon__bimodal__2048"
