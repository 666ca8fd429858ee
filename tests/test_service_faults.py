"""Fault injection against the prediction service.

Every drill follows the same arc: break something mid-flight (kill the
worker, corrupt a stored artifact), verify the service *classifies* the
damage instead of serving garbage, then verify the recovery path restores
byte-identical output.  The worker-death hook is the campaign layer's own
crash drill (``REPRO_CAMPAIGN_ABORT_AFTER``); corruption is literal bit
damage written over the stored files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.cli import RUNNERS
from repro.harness.figconfig import parse_config, run_target
from repro.predictors.registry import build_count
from tests.service_helpers import (
    close_apps,  # noqa: F401 - an autouse fixture
    get_json,
    make_app,
    mini_spec,
    run_job,
    set_service_env,
    submit,
)


@pytest.fixture(scope="module")
def trace_store(tmp_path_factory):
    return tmp_path_factory.mktemp("traces")


@pytest.fixture
def env(monkeypatch, tmp_path, trace_store):
    set_service_env(monkeypatch, tmp_path, trace_store)
    # A crashed worker leaves a live-looking claim behind; let the rerun
    # steal it quickly instead of waiting out the production staleness.
    monkeypatch.setenv("REPRO_CAMPAIGN_STALE_SECONDS", "0.2")
    monkeypatch.setenv("REPRO_CAMPAIGN_POLL_SECONDS", "0.01")
    return tmp_path


def reference_bytes(spec: dict) -> bytes:
    """What a clean in-process render of ``spec`` produces."""
    return run_target(parse_config(spec), RUNNERS).encode()


class TestWorkerDeath:
    def test_killed_worker_leaves_partial_then_rerun_completes(
        self, env, tmp_path, monkeypatch
    ):
        """Worker dies mid-campaign -> partial; resubmit -> completed."""
        spec = mini_spec(families=("gshare", "bimodal"), budgets=(1024, 2048))
        app, executor = make_app(tmp_path)
        code, doc = submit(app, spec)
        assert code == 202
        job_id = doc["job_id"]

        monkeypatch.setenv("REPRO_CAMPAIGN_ABORT_AFTER", "1")
        executor.enqueue(job_id)
        executor.run_pending()
        code, status = get_json(app, f"/v1/jobs/{job_id}")
        assert status["state"] == "partial"
        assert "aborted" in status["error"]
        assert status["counts"]["completed"] >= 1  # some work survived
        # The figure is not served from a half-drained campaign.
        assert app.handle("GET", f"/v1/jobs/{job_id}/figure")[0] == 409

        # Rerun: resubmitting the same spec re-plans the damaged classes.
        monkeypatch.delenv("REPRO_CAMPAIGN_ABORT_AFTER")
        code, doc = submit(app, spec)
        assert code == 202 and doc["state"] == "queued"
        executor.enqueue(job_id)
        executor.run_pending()
        code, status = get_json(app, f"/v1/jobs/{job_id}")
        assert status["state"] == "completed"
        served, _ = app.jobs.figure_bytes(job_id)
        assert served == reference_bytes(spec)

    def test_spawned_worker_crash_is_classified(self, env, tmp_path, monkeypatch):
        """A dead *process* (spawn mode) lands the job in partial too."""
        import os

        monkeypatch.setenv("REPRO_CAMPAIGN_ABORT_AFTER", "1")
        monkeypatch.setenv("PYTHONPATH", str(Path(__file__).resolve().parent.parent / "src"))
        spec = mini_spec(families=("gshare", "bimodal"))
        app, executor = make_app(tmp_path, worker_mode="spawn")
        code, doc = submit(app, spec)
        executor.enqueue(doc["job_id"])
        executor.run_pending()
        code, status = get_json(app, f"/v1/jobs/{doc['job_id']}")
        assert status["state"] == "partial"
        assert "exited" in status["error"]

        monkeypatch.delenv("REPRO_CAMPAIGN_ABORT_AFTER")
        code, doc = submit(app, spec)
        executor.enqueue(doc["job_id"])
        executor.run_pending()
        _, status = get_json(app, f"/v1/jobs/{doc['job_id']}")
        assert status["state"] == "completed"
        served, _ = app.jobs.figure_bytes(doc["job_id"])
        assert served == reference_bytes(spec)


class TestCorruption:
    def test_corrupt_figure_blob_self_heals(self, env, tmp_path):
        spec = mini_spec()
        app, executor = make_app(tmp_path)
        status = run_job(app, executor, spec)
        digest = status["figure_digest"]
        blob_path = Path(app.blobs.path(digest))
        blob_path.write_bytes(b"GARBAGE NOT A FIGURE")

        code, payload, _ = app.handle("GET", f"/v1/jobs/{status['job_id']}/figure")
        assert code == 200
        assert payload == reference_bytes(spec)  # never the garbage
        # The blob store holds the healed copy again under the same digest.
        assert app.blobs.load(digest) == payload

    def test_corrupt_blob_on_results_endpoint_recomputes(self, env, tmp_path):
        spec = mini_spec()
        app, executor = make_app(tmp_path)
        status = run_job(app, executor, spec)
        digest = status["figure_digest"]
        Path(app.blobs.path(digest)).write_bytes(b"\x00" * 64)

        code, payload, _ = app.handle("GET", f"/v1/results/{digest}")
        assert code == 200
        assert payload == reference_bytes(spec)

    def test_corrupt_manifest_blob_self_heals(self, env, tmp_path):
        """The job's manifest route answers a fresh manifest; a fetch of the
        lost digest never answers bytes that are not that digest (a
        re-rendered manifest records a new creation time)."""
        app, executor = make_app(tmp_path)
        status = run_job(app, executor, mini_spec())
        digest = status["manifest_digest"]
        Path(app.blobs.path(digest)).write_bytes(b"{}")
        fetches = [app.handle("GET", f"/v1/results/{digest}")[:2] for _ in range(2)]
        for code, payload in fetches:
            if code == 200:
                assert hashlib.sha256(payload).hexdigest() == digest
            else:
                assert code == 404 and digest in json.loads(payload)["error"]
        assert fetches[0] == fetches[1]
        code, payload, _ = app.handle(
            "GET", f"/v1/jobs/{status['job_id']}/manifest"
        )
        assert code == 200
        manifest = json.loads(payload)
        assert manifest["target"] == "mini"

    def test_corrupt_result_store_cell_recomputes(self, env, tmp_path):
        """Deep corruption: the sweep cell itself is damaged on disk.

        The figure blob is also destroyed, so the re-render must resolve
        through the result store, notice the bad checksum, and recompute
        the cell — more predictor work, identical bytes, no garbage.
        """
        spec = mini_spec()
        app, executor = make_app(tmp_path)
        status = run_job(app, executor, spec)
        expected = reference_bytes(spec)

        import os

        store_root = Path(os.environ["REPRO_RESULT_STORE"])
        cells = [p for p in store_root.rglob("*.json") if "index" not in p.name]
        assert cells, "expected stored sweep cells"
        for cell in cells:
            cell.write_text('{"schema": 1, "payload": {"broken": true}')
        Path(app.blobs.path(status["figure_digest"])).unlink()

        before = build_count()
        code, payload, _ = app.handle("GET", f"/v1/jobs/{status['job_id']}/figure")
        assert code == 200
        assert payload == expected
        assert build_count() > before  # the cell really was recomputed
