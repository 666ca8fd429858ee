"""The campaign orchestrator: classification, queue/claim/steal, workers.

Heavier multi-process drills (two concurrent worker processes, crash +
steal under real subprocess kill) live in ``scripts/drill.py campaign``;
here everything runs in-process on tiny grids so the full classify ->
plan -> execute -> merge loop stays fast enough for tier-1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.common import settings
from repro.common.atomic import HOST, exclusive_create_json
from repro.common.errors import ConfigurationError
from repro.harness import campaign
from repro.harness.campaign import (
    ACTIONS,
    CLASSES,
    CampaignError,
    CampaignLayout,
    CellStatus,
    CheckpointStore,
    Shard,
    ShardOutcome,
    WorkQueue,
    _shard_result_key,
    class_counts,
    classify_shard,
    create_campaign,
    load_campaign,
    merge,
    normalize_statuses,
    plan,
    run_worker,
    scan,
    shard_grid,
)
from repro.harness.sweep import accuracy_sweep
from tests.conftest import exited_pid, plant_staging_files

FAMILIES = ["gshare", "bimodal"]
BUDGETS = [2 * 1024]
BENCHMARKS = ["gcc", "eon"]
INSTRUCTIONS = 20_000
CFG = {
    "accuracy": {
        "instructions": INSTRUCTIONS,
        "engine": None,
        "warmup_fraction": 0.2,
    }
}


def grid() -> list[Shard]:
    return shard_grid("accuracy", FAMILIES, BUDGETS, BENCHMARKS)


def make_campaign(run_dir) -> list[Shard]:
    shards = grid()
    create_campaign(str(run_dir), shards, CFG, label="test")
    return shards


def write_checkpoint(run_dir, shard: Shard, payload=None) -> None:
    CheckpointStore(str(run_dir)).store(
        ShardOutcome(
            shard=shard,
            payload=payload or {"misprediction_percent": 1.0},
            duration_seconds=0.0,
            worker_pid=os.getpid(),
        )
    )


# -- configuration knobs -------------------------------------------------------


class TestKnobs:
    def test_stale_and_poll_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_CAMPAIGN_STALE_SECONDS", raising=False)
        monkeypatch.delenv("REPRO_CAMPAIGN_POLL_SECONDS", raising=False)
        assert settings.get("REPRO_CAMPAIGN_STALE_SECONDS") == 600.0
        assert settings.get("REPRO_CAMPAIGN_POLL_SECONDS") == 0.2

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_STALE_SECONDS", "5")
        monkeypatch.setenv("REPRO_CAMPAIGN_POLL_SECONDS", "0")
        assert settings.get("REPRO_CAMPAIGN_STALE_SECONDS") == 5.0
        assert settings.get("REPRO_CAMPAIGN_POLL_SECONDS") == 0.0

    @pytest.mark.parametrize("raw", ["soon", "0", "-1"])
    def test_stale_rejects_garbage(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CAMPAIGN_STALE_SECONDS", raw)
        with pytest.raises(ConfigurationError):
            settings.get("REPRO_CAMPAIGN_STALE_SECONDS")

    def test_statuses_normalize_aliases_and_dedupe(self):
        assert normalize_statuses("failed,partial") == ["failed", "partial"]
        assert normalize_statuses("results, results-missing") == ["results_missing"]
        assert normalize_statuses(["Missing"]) == ["missing"]

    @pytest.mark.parametrize("raw", ["", "bogus", "failed,bogus"])
    def test_statuses_reject_garbage(self, raw):
        with pytest.raises(ConfigurationError):
            normalize_statuses(raw)

    def test_every_class_has_an_action(self):
        assert set(ACTIONS) == set(CLASSES)
        assert ACTIONS["completed"] == "skip"
        assert ACTIONS["results_missing"] == "regenerate"


# -- campaign spec -------------------------------------------------------------


class TestCampaignSpec:
    def test_create_is_idempotent(self, tmp_path):
        shards = make_campaign(tmp_path)
        again = create_campaign(str(tmp_path), shards, CFG, label="test")
        assert again["shards"] == [asdict(s) for s in shards]
        assert load_campaign(str(tmp_path))["cfg"] == CFG

    def test_create_refuses_different_grid(self, tmp_path):
        make_campaign(tmp_path)
        other = shard_grid("accuracy", ["gshare"], BUDGETS, BENCHMARKS)
        with pytest.raises(ConfigurationError, match="different campaign"):
            create_campaign(str(tmp_path), other, CFG)

    def test_load_requires_campaign(self, tmp_path):
        with pytest.raises(CampaignError, match="campaign.json"):
            load_campaign(str(tmp_path))

    def test_load_refuses_wrong_schema(self, tmp_path):
        (tmp_path / "campaign.json").write_text(
            json.dumps({"schema": -1, "shards": [], "cfg": {}})
        )
        with pytest.raises(CampaignError, match="schema"):
            load_campaign(str(tmp_path))


# -- classification ------------------------------------------------------------


class TestClassification:
    def test_synthetically_damaged_dir_hits_all_five_classes(
        self, tmp_path, monkeypatch
    ):
        """One shard per class, manufactured by hand, classified in one
        scan — the acceptance drill for the five-class table."""
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        from repro.harness.resultstore import active_result_store

        shards = shard_grid(
            "accuracy", ["gshare", "bimodal"], [1024, 2048], ["gcc", "eon"]
        )[:5]
        create_campaign(str(tmp_path), shards, CFG, label="damaged")
        done, torn, failed, claimed, stored = shards

        write_checkpoint(tmp_path, done)  # -> completed
        (tmp_path / "shards" / f"{torn.key}.json").write_text('{"sch')  # -> partial
        (tmp_path / "shards" / f"{failed.key}.failed.json").write_text(
            json.dumps({"schema": campaign.CAMPAIGN_SCHEMA})
        )  # -> failed
        (tmp_path / "claims").mkdir(exist_ok=True)
        (tmp_path / "claims" / f"{claimed.key}.json").write_text(
            json.dumps({"owner": "dead-worker", "ts": 0.0})
        )  # claim, no checkpoint -> partial
        key, cell = _shard_result_key(stored, CFG["accuracy"])
        active_result_store().save(
            key, cell, {"misprediction_percent": 2.0}
        )  # store hit, no checkpoint -> results_missing
        # The fifth class is the absence of evidence: nothing for `missing`.

        cells = scan(str(tmp_path))
        by_key = {c.shard.key: c.status for c in cells}
        assert by_key[done.key] == "completed"
        assert by_key[torn.key] == "partial"
        assert by_key[failed.key] == "failed"
        assert by_key[claimed.key] == "partial"
        assert by_key[stored.key] == "results_missing"
        assert class_counts(cells) == {
            "completed": 1,
            "results_missing": 1,
            "failed": 1,
            "partial": 2,
            "missing": 0,
        }

    def test_missing_without_store_or_evidence(self, tmp_path):
        make_campaign(tmp_path)
        cells = scan(str(tmp_path))
        assert {c.status for c in cells} == {"missing"}

    def test_valid_checkpoint_beats_every_other_evidence(self, tmp_path):
        """Precedence: a valid checkpoint wins even over a failure marker
        and a live claim (both are leftovers of an already-finished cell)."""
        shards = make_campaign(tmp_path)
        layout = CampaignLayout(str(tmp_path))
        shard = shards[0]
        write_checkpoint(tmp_path, shard)
        (tmp_path / "shards" / f"{shard.key}.failed.json").write_text("{}")
        (tmp_path / "claims" / f"{shard.key}.json").write_text("{}")
        assert classify_shard(shard, layout=layout) == "completed"

    def test_storeless_classification_collapses_to_two_classes(self):
        shard = grid()[0]
        assert classify_shard(shard, layout=None) == "missing"

    def test_cellstatus_maps_class_to_action(self):
        cell = CellStatus(grid()[0], "results_missing")
        assert cell.action == "regenerate"


# -- queue / claims ------------------------------------------------------------


class TestWorkQueue:
    @pytest.fixture
    def queue(self, tmp_path):
        return WorkQueue(CampaignLayout(str(tmp_path)).ensure())

    def test_enqueue_entry_dequeue_roundtrip(self, queue):
        shard = grid()[0]
        queue.enqueue(shard, "execute")
        entry = queue.entry(shard.key)
        assert entry["action"] == "execute" and entry["attempts"] == 0
        assert queue.keys() == [shard.key]
        queue.dequeue(shard.key)
        assert queue.entry(shard.key) is None and queue.keys() == []

    def test_keys_sorted_and_staging_excluded(self, queue, tmp_path):
        for shard in grid():
            queue.enqueue(shard, "execute")
        (tmp_path / "queue" / "zzz.json.tmp.99").write_text("{")
        keys = queue.keys()
        assert keys == sorted(keys) and len(keys) == 4

    def test_claim_is_exclusive(self, queue):
        assert queue.try_claim("cell", "w1", stale_seconds=600) == "claimed"
        assert queue.try_claim("cell", "w2", stale_seconds=600) is None
        queue.release("cell")
        assert queue.try_claim("cell", "w2", stale_seconds=600) == "claimed"

    def test_stale_claim_is_stolen(self, queue, tmp_path):
        path = tmp_path / "claims" / "cell.json"
        path.write_text(json.dumps({"owner": "dead", "ts": time.time() - 3600}))
        assert queue.try_claim("cell", "w2", stale_seconds=600) == "stolen"
        assert json.loads(path.read_text())["owner"] == "w2"

    def test_fresh_unreadable_claim_is_not_stolen(self, queue, tmp_path):
        """A claim file that does not parse but is *young* must be treated
        as live (its mtime bounds the writer's age) — stealing it would
        re-open the duplicate-execution race the link-create closes."""
        path = tmp_path / "claims" / "cell.json"
        path.write_text("")  # unreadable, mtime = now
        assert queue.try_claim("cell", "w2", stale_seconds=600) is None
        old = time.time() - 3600
        os.utime(path, (old, old))
        assert queue.try_claim("cell", "w2", stale_seconds=600) == "stolen"

    def test_exclusive_create_publishes_complete_content(self, tmp_path):
        path = tmp_path / "claim.json"
        assert exclusive_create_json(path, {"owner": "w1"}) is True
        assert exclusive_create_json(path, {"owner": "w2"}) is False
        assert json.loads(path.read_text())["owner"] == "w1"
        # No staging droppings left beside the published claim.
        assert [p.name for p in tmp_path.iterdir()] == ["claim.json"]


# -- planner -------------------------------------------------------------------


class TestPlanner:
    def test_plan_enqueues_actionable_and_skips_completed(self, tmp_path):
        shards = make_campaign(tmp_path)
        write_checkpoint(tmp_path, shards[0])
        planned = plan(str(tmp_path))
        assert planned == {"execute": 3, "regenerate": 0, "skip": 1}
        queue = WorkQueue(CampaignLayout(str(tmp_path)))
        assert len(queue.keys()) == 3
        assert shards[0].key not in queue.keys()

    def test_plan_clears_failure_markers_and_torn_checkpoints(self, tmp_path):
        shards = make_campaign(tmp_path)
        torn, failed = shards[0], shards[1]
        torn_path = tmp_path / "shards" / f"{torn.key}.json"
        torn_path.write_text('{"sch')
        dead = f"{torn.key}.json.tmp.{HOST}.{exited_pid()}.1"
        (tmp_path / "shards" / dead).write_text("{")
        marker = tmp_path / "shards" / f"{failed.key}.failed.json"
        marker.write_text("{}")
        plan(str(tmp_path))
        assert not torn_path.exists() and not marker.exists()
        assert not list((tmp_path / "shards").glob("*.tmp.*"))

    def test_live_writers_staging_file_is_kept(self, tmp_path):
        """A staging file whose writer still runs is no torn checkpoint:
        the cell is not ``partial``, and ``plan`` keeps the file (unlinking
        it would fail the writer's rename)."""
        shards = make_campaign(tmp_path)
        layout = CampaignLayout(str(tmp_path))
        checkpoint = Path(layout.checkpoint_path(shards[0]))
        writer = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            live = checkpoint.parent / f"{checkpoint.name}.tmp.{HOST}.{writer.pid}.1"
            live.write_text("{")
            assert classify_shard(shards[0], layout=layout) == "missing"
            plan(str(tmp_path))
            assert live.exists()
        finally:
            writer.kill()
            writer.wait()

    def test_exited_writers_staging_files_are_torn_and_removed(self, tmp_path):
        """Staging files whose writers are shown gone mark the cell
        ``partial`` and ``plan`` removes them; another host's fresh file
        beside them is kept."""
        shards = make_campaign(tmp_path)
        layout = CampaignLayout(str(tmp_path))
        dead, live = plant_staging_files(Path(layout.checkpoint_path(shards[0])))
        assert classify_shard(shards[0], layout=layout) == "partial"
        plan(str(tmp_path))
        assert not any(path.exists() for path in dead)
        assert all(path.exists() for path in live)

    def test_plan_status_filter_restricts_requeue(self, tmp_path):
        shards = make_campaign(tmp_path)
        (tmp_path / "shards").mkdir(exist_ok=True)
        (tmp_path / "shards" / f"{shards[0].key}.failed.json").write_text("{}")
        planned = plan(str(tmp_path), statuses=["failed"])
        assert planned == {"execute": 1, "regenerate": 0, "skip": 0}
        queue = WorkQueue(CampaignLayout(str(tmp_path)))
        assert queue.keys() == [shards[0].key]

    def test_plan_never_touches_live_claims(self, tmp_path):
        shards = make_campaign(tmp_path)
        claim = tmp_path / "claims" / f"{shards[0].key}.json"
        claim.parent.mkdir(exist_ok=True)
        claim.write_text(json.dumps({"owner": "live", "ts": time.time()}))
        plan(str(tmp_path))
        assert json.loads(claim.read_text())["owner"] == "live"


# -- worker / merge ------------------------------------------------------------


class TestWorkerAndMerge:
    def test_full_campaign_matches_serial_sweep(self, tmp_path):
        """create -> plan -> run_worker -> merge, byte-identical to the
        serial path and re-runnable as a pure no-op."""
        make_campaign(tmp_path)
        assert plan(str(tmp_path))["execute"] == 4
        counters = run_worker(str(tmp_path), owner="solo")
        assert counters["cells_executed"] == 4
        assert counters["failures"] == 0 and counters["steals"] == 0
        merged = merge(str(tmp_path))
        reference = accuracy_sweep(
            FAMILIES, BUDGETS, benchmarks=BENCHMARKS, instructions=INSTRUCTIONS
        )
        assert [row["payload"]["misprediction_percent"] for row in merged["rows"]] == [
            cell.misprediction_percent for cell in reference
        ]
        # A rescan classifies everything completed; replanning queues nothing.
        assert class_counts(scan(str(tmp_path)))["completed"] == 4
        assert plan(str(tmp_path)) == {"execute": 0, "regenerate": 0, "skip": 4}
        assert run_worker(str(tmp_path), owner="again")["cells_executed"] == 0

    def test_merge_refuses_incomplete_campaign(self, tmp_path):
        shards = make_campaign(tmp_path)
        write_checkpoint(tmp_path, shards[0])
        with pytest.raises(CampaignError, match="not complete"):
            merge(str(tmp_path))

    def test_regenerate_assembles_from_result_store(self, tmp_path, monkeypatch):
        """results_missing cells cost zero predictor work: the worker
        assembles checkpoints straight from the store."""
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        from repro.harness.resultstore import active_result_store
        from repro.predictors import registry

        shards = make_campaign(tmp_path / "run")
        store = active_result_store()
        for shard in shards:
            key, cell = _shard_result_key(shard, CFG["accuracy"])
            store.save(key, cell, {"misprediction_percent": 7.5})
        cells = scan(str(tmp_path / "run"))
        assert {c.status for c in cells} == {"results_missing"}
        assert plan(str(tmp_path / "run"), cells=cells)["regenerate"] == 4
        registry.reset_build_count()
        counters = run_worker(str(tmp_path / "run"), owner="assembler")
        assert counters["cells_regenerated"] == 4
        assert counters["cells_executed"] == 0
        assert registry.build_count() == 0  # no predictor was ever built
        merged = merge(str(tmp_path / "run"))
        assert all(
            row["payload"] == {"misprediction_percent": 7.5} for row in merged["rows"]
        )

    def test_failure_exhausts_retries_into_failed_class(self, tmp_path, monkeypatch):
        """A cell that keeps failing is requeued with budget, then marked
        failed; `rerun --status failed` clears the marker and reconverges."""
        monkeypatch.setenv("REPRO_CAMPAIGN_FAIL_CELL", "gcc__gshare")
        monkeypatch.setenv("REPRO_CAMPAIGN_FAIL_ATTEMPTS", "99")
        make_campaign(tmp_path)
        plan(str(tmp_path))
        counters = run_worker(str(tmp_path), owner="w1", max_retries=1)
        assert counters["failures"] == 2  # initial attempt + one retry
        assert counters["requeues"] == 1
        assert counters["cells_executed"] == 3
        cells = scan(str(tmp_path))
        counts = class_counts(cells)
        assert counts["failed"] == 1 and counts["completed"] == 3
        with pytest.raises(CampaignError):
            merge(str(tmp_path))

        monkeypatch.delenv("REPRO_CAMPAIGN_FAIL_CELL")
        monkeypatch.delenv("REPRO_CAMPAIGN_FAIL_ATTEMPTS")
        planned = plan(str(tmp_path), statuses=normalize_statuses("failed,partial"))
        assert planned["execute"] == 1
        assert run_worker(str(tmp_path), owner="w2")["cells_executed"] == 1
        assert class_counts(scan(str(tmp_path)))["completed"] == 4
        merge(str(tmp_path))

    def test_killed_worker_rescan_selective_rerun_merges_identically(
        self, tmp_path, monkeypatch
    ):
        """The satellite drill: kill a worker mid-campaign (holding a
        claim), rescan, rerun only failed+partial, and the final merge is
        byte-identical to an uninterrupted campaign's."""
        # Uninterrupted reference campaign.
        ref_dir = tmp_path / "ref"
        make_campaign(ref_dir)
        plan(str(ref_dir))
        run_worker(str(ref_dir), owner="ref")
        reference = merge(str(ref_dir))

        run_dir = tmp_path / "run"
        make_campaign(run_dir)
        plan(str(run_dir))
        monkeypatch.setenv("REPRO_CAMPAIGN_ABORT_AFTER", "1")
        with pytest.raises(RuntimeError, match="REPRO_CAMPAIGN_ABORT_AFTER"):
            run_worker(str(run_dir), owner="victim")
        monkeypatch.delenv("REPRO_CAMPAIGN_ABORT_AFTER")

        # The victim completed one cell and died holding its next claim.
        counts = class_counts(scan(str(run_dir)))
        assert counts["completed"] == 1
        assert counts["partial"] == 1  # the held claim, no checkpoint
        assert counts["missing"] == 2

        # Rerun only the evidence-of-trouble classes; the still-queued
        # missing cells are already planned work the worker drains too.
        plan(str(run_dir), statuses=normalize_statuses("failed,partial"))
        counters = run_worker(str(run_dir), owner="medic", stale_seconds=0.0001)
        assert counters["steals"] == 1  # the victim's abandoned claim
        assert counters["cells_executed"] == 3
        assert class_counts(scan(str(run_dir)))["completed"] == 4

        merged = merge(str(run_dir))
        assert json.dumps(merged["rows"], sort_keys=True) == json.dumps(
            reference["rows"], sort_keys=True
        )
        # Byte-identity of the artifact itself (label and all).
        ref_bytes = (ref_dir / "merged.json").read_bytes()
        assert (run_dir / "merged.json").read_bytes() == ref_bytes

    def test_worker_events_feed_campaign_rollup(self, tmp_path, monkeypatch):
        """claim/classify/requeue events land on the bus and the obs
        campaign rollup reconstructs per-worker cell counters from them."""
        from repro.obs.aggregate import campaign_rollup
        from repro.obs.events import read_run_events, validate_event

        log = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_LOG", str(log))
        monkeypatch.delenv("REPRO_LOG_OWNER_PID", raising=False)
        make_campaign(tmp_path / "run")
        plan(str(tmp_path / "run"))
        run_worker(str(tmp_path / "run"), owner="tracked")
        events = read_run_events(log)
        assert events and all(validate_event(e) == [] for e in events)
        assert [e for e in events if e["event"] == "classify"]
        claims = [e for e in events if e["event"] == "claim"]
        assert len(claims) == 4 and all(e["owner"] == "tracked" for e in claims)
        rollup = campaign_rollup(events)
        assert rollup["workers"]["tracked"]["cells_executed"] == 4
        assert rollup["claim_events"] == 4 and rollup["steal_events"] == 0
        assert rollup["totals"]["cells_executed"] == 4
