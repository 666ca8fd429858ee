"""Tests for the run-event bus: schema validation, emit helpers, sidecar
merging and crash-tolerant reading."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.obs import events


@pytest.fixture
def log_file(tmp_path, monkeypatch):
    path = tmp_path / "events.jsonl"
    monkeypatch.setenv("REPRO_LOG", str(path))
    monkeypatch.delenv("REPRO_LOG_OWNER_PID", raising=False)
    return path


def read_events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestEmitHelpers:
    def test_emitted_events_validate(self, log_file):
        events.emit_counter({"trace_cache.hits": 3})
        events.emit_store("trace", "misses")
        events.emit_retry("accuracy__gcc__gshare__2048", 0, "RuntimeError: boom")
        events.emit_checkpoint("accuracy__gcc__gshare__2048", "store")
        events.emit_run_summary("accuracy_sweep", {"shards": {"executed": 4}})
        records = read_events(log_file)
        assert [r["event"] for r in records] == [
            "counter",
            "store",
            "retry",
            "checkpoint",
            "run_summary",
        ]
        for record in records:
            assert events.validate_event(record) == []

    def test_campaign_events_validate(self, log_file):
        """The campaign-orchestrator event types introduced by schema v2."""
        events.emit_classify({"completed": 3, "missing": 1}, label="scan")
        events.emit_claim("accuracy__gcc__gshare__2048", "worker-1")
        events.emit_claim("accuracy__eon__gshare__2048", "worker-2", stolen=True)
        events.emit_requeue("accuracy__gcc__gshare__2048", 1, "RuntimeError: boom")
        records = read_events(log_file)
        assert [r["event"] for r in records] == [
            "classify", "claim", "claim", "requeue",
        ]
        for record in records:
            assert events.validate_event(record) == []
        assert records[0]["counts"] == {"completed": 3, "missing": 1}
        assert records[1]["stolen"] is False
        assert records[2]["stolen"] is True
        assert records[3]["attempt"] == 1

    def test_campaign_events_require_type_fields(self):
        common = {"ts": 1.0, "pid": 1}
        assert any(
            "counts" in p
            for p in events.validate_event({"event": "classify", **common})
        )
        assert any(
            "owner" in p for p in events.validate_event({"event": "claim", **common})
        )
        assert any(
            "attempt" in p
            for p in events.validate_event({"event": "requeue", **common})
        )

    def test_counter_drops_zero_deltas(self, log_file):
        events.emit_counter({"a": 0, "b": 2})
        (record,) = read_events(log_file)
        assert record["counters"] == {"b": 2}

    def test_all_zero_counter_batch_emits_nothing(self, log_file):
        events.emit_counter({"a": 0, "b": 0})
        assert not log_file.exists()

    def test_emit_without_log_is_noop(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        events.emit_store("trace", "hits")  # must not raise


class TestValidation:
    def test_missing_common_fields(self):
        problems = events.validate_event({"event": "store", "store": "trace", "op": "hits"})
        assert any("ts" in p for p in problems)
        assert any("pid" in p for p in problems)

    def test_missing_type_fields(self):
        problems = events.validate_event(
            {"event": "span", "ts": 1.0, "pid": 1, "name": "x"}
        )
        assert any("span_id" in p for p in problems)
        assert any("duration_seconds" in p for p in problems)

    def test_unknown_event_type(self):
        assert events.validate_event({"event": "mystery", "ts": 1.0, "pid": 1})
        assert events.validate_event("not a dict")

    def test_span_events_from_tracer_validate(self, log_file):
        with obs.span("phase"):
            pass
        for record in read_events(log_file):
            assert events.validate_event(record) == []


class TestReaders:
    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "span", "ts": 1.0}\n{"event": "sp')
        assert len(events.read_event_lines(path)) == 1

    def test_missing_file_reads_empty(self, tmp_path):
        assert events.read_event_lines(tmp_path / "nope.jsonl") == []

    def test_sidecar_paths_ignore_non_numeric_suffixes(self, tmp_path):
        main = tmp_path / "events.jsonl"
        main.write_text("")
        (tmp_path / "events.jsonl.123").write_text("")
        (tmp_path / "events.jsonl.456").write_text("")
        (tmp_path / "events.jsonl.tmp.789").write_text("")  # atomic staging
        (tmp_path / "events.jsonl.bak").write_text("")
        assert events.sidecar_paths(main) == [
            str(tmp_path / "events.jsonl.123"),
            str(tmp_path / "events.jsonl.456"),
        ]


class TestSidecarMerge:
    def test_collect_merges_sorted_and_unlinks(self, log_file):
        log_file.write_text(json.dumps({"event": "span", "ts": 2.0, "pid": 1}) + "\n")
        sidecar = log_file.parent / f"{log_file.name}.999"
        sidecar.write_text(
            json.dumps({"event": "span", "ts": 3.0, "pid": 999})
            + "\n"
            + json.dumps({"event": "span", "ts": 1.0, "pid": 999})
            + "\n"
        )
        merged = events.collect_worker_events(str(log_file))
        assert merged == 2
        assert not sidecar.exists()
        # Main file: its own record first (append order), sidecar records
        # appended in timestamp order.
        assert [r["ts"] for r in read_events(log_file)] == [2.0, 1.0, 3.0]

    def test_collect_defaults_to_own_sink(self, log_file):
        sidecar = log_file.parent / f"{log_file.name}.424242"
        sidecar.write_text(json.dumps({"event": "span", "ts": 1.0, "pid": 424242}) + "\n")
        with obs.claim_log_ownership():
            assert events.collect_worker_events() == 1
        assert read_events(log_file)[0]["pid"] == 424242

    def test_collect_without_log_is_noop(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        assert events.collect_worker_events() == 0

    def test_read_run_events_includes_leftover_sidecars(self, log_file):
        """A crashed run never merged its sidecars; reading must still see
        every record, timestamp-ordered across files."""
        log_file.write_text(json.dumps({"event": "span", "ts": 2.0, "pid": 1}) + "\n")
        sidecar = log_file.parent / f"{log_file.name}.777"
        sidecar.write_text(json.dumps({"event": "span", "ts": 1.0, "pid": 777}) + "\n")
        records = events.read_run_events(log_file)
        assert [r["ts"] for r in records] == [1.0, 2.0]
        assert sidecar.exists()  # reading never mutates


class TestWorkerRouting:
    def test_worker_store_events_land_in_sidecar(self, log_file, monkeypatch):
        """A process that is not the log owner emits to its own sidecar;
        the owner's merge pulls the records back into the main file."""
        monkeypatch.setenv("REPRO_LOG_OWNER_PID", "1")
        events.emit_store("result", "hits")
        sidecar = log_file.parent / f"{log_file.name}.{os.getpid()}"
        assert sidecar.exists() and not log_file.exists()
        monkeypatch.setenv("REPRO_LOG_OWNER_PID", str(os.getpid()))
        assert events.collect_worker_events() == 1
        assert not sidecar.exists()
        (record,) = read_events(log_file)
        assert record["store"] == "result"
