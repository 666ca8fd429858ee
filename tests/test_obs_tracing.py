"""Tests for span tracing: registry timers, JSONL events, span context,
sidecar routing, and the stderr mirror."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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


def read_closes(path):
    """Span close events only (the log also carries span_open records)."""
    return [e for e in read_events(path) if e["event"] == "span"]


class TestSpan:
    def test_disabled_span_is_noop(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        monkeypatch.delenv("REPRO_VERBOSE", raising=False)
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        obs.set_enabled(None)
        assert not obs.tracing_active()
        with obs.span("quiet") as handle:
            handle.annotate(ignored=True)  # no-op handle accepts annotations
        assert obs.registry().timers == {}

    def test_span_records_timer(self, obs_enabled):
        with obs.span("phase_a"):
            pass
        with obs.span("phase_a"):
            pass
        timer = obs.registry().timer("span.phase_a")
        assert timer.count == 2
        assert timer.total_seconds >= 0.0

    def test_span_emits_jsonl(self, obs_enabled, log_file):
        with obs.span("outer", engine="batch"):
            with obs.span("inner") as inner:
                inner.annotate(cells=3)
        events = read_closes(log_file)
        assert [e["name"] for e in events] == ["inner", "outer"]  # close order
        inner_event, outer_event = events
        assert inner_event["depth"] == 1 and outer_event["depth"] == 0
        assert inner_event["attrs"] == {"cells": 3}
        assert outer_event["attrs"] == {"engine": "batch"}
        assert outer_event["duration_seconds"] >= inner_event["duration_seconds"]

    def test_span_open_events_precede_closes(self, obs_enabled, log_file):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        names = [(e["event"], e["name"]) for e in read_events(log_file)]
        assert names == [
            ("span_open", "outer"),
            ("span_open", "inner"),
            ("span", "inner"),
            ("span", "outer"),
        ]

    def test_jsonl_without_profiling(self, monkeypatch, log_file):
        """REPRO_LOG alone activates spans — no metrics required."""
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        obs.set_enabled(None)
        with obs.span("standalone"):
            pass
        assert [e["name"] for e in read_closes(log_file)] == ["standalone"]
        assert obs.registry().timers == {}  # metrics still off

    def test_span_closes_on_exception(self, obs_enabled, log_file):
        with pytest.raises(ValueError):
            with obs.span("doomed"):
                raise ValueError("boom")
        assert [e["name"] for e in read_closes(log_file)] == ["doomed"]

    def test_verbose_mirror(self, obs_enabled, capsys):
        obs.set_verbose(True)
        try:
            with obs.span("loud", benchmark="gcc"):
                pass
        finally:
            obs.set_verbose(None)
        err = capsys.readouterr().err
        assert "[obs] > loud" in err
        assert "< loud" in err and "benchmark=gcc" in err

    def test_log_event(self, log_file):
        obs.log_event("manifest", target="figure1")
        (event,) = read_events(log_file)
        assert event["event"] == "manifest"
        assert event["target"] == "figure1"
        assert "ts" in event
        assert event["pid"] == os.getpid()
        assert event["v"] == events.EVENT_SCHEMA


class TestSpanContext:
    def test_nested_spans_share_trace_and_link_parents(self, obs_enabled, log_file):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = read_closes(log_file)
        assert outer["trace_id"] and outer["span_id"]
        assert outer["parent_id"] is None
        assert inner["trace_id"] == outer["trace_id"]
        assert inner["parent_id"] == outer["span_id"]
        assert inner["span_id"] != outer["span_id"]

    def test_sibling_roots_get_fresh_traces(self, obs_enabled, log_file):
        with obs.span("first"):
            pass
        with obs.span("second"):
            pass
        first, second = read_closes(log_file)
        assert first["trace_id"] != second["trace_id"]

    def test_current_context_tracks_innermost_span(self, obs_enabled):
        assert obs.current_context() is None
        with obs.span("outer"):
            outer_ctx = obs.current_context()
            with obs.span("inner"):
                inner_ctx = obs.current_context()
                assert inner_ctx["trace_id"] == outer_ctx["trace_id"]
                assert inner_ctx["span_id"] != outer_ctx["span_id"]
            assert obs.current_context() == outer_ctx
        assert obs.current_context() is None

    def test_adopted_context_parents_new_roots(self, obs_enabled, log_file):
        """The worker half of propagation: spans with no local parent
        attach to the adopted remote context."""
        remote = {"trace_id": "cafe" * 4, "span_id": "beef" * 4}
        obs.adopt_context(remote)
        try:
            assert obs.current_context() == remote
            with obs.span("worker_phase"):
                pass
        finally:
            obs.adopt_context(None)
        (event,) = read_closes(log_file)
        assert event["trace_id"] == remote["trace_id"]
        assert event["parent_id"] == remote["span_id"]
        assert obs.current_context() is None

    def test_last_trace_id_reports_most_recent_root(self, obs_enabled):
        with obs.span("run"):
            pass
        assert obs.last_trace_id()


class TestSidecarRouting:
    def test_owner_writes_main_file(self, log_file):
        with obs.claim_log_ownership():
            assert os.environ["REPRO_LOG_OWNER_PID"] == str(os.getpid())
            assert obs.event_sink() == str(log_file)
            with obs.claim_log_ownership():  # nested: already owned
                pass
            assert os.environ["REPRO_LOG_OWNER_PID"] == str(os.getpid())
        assert "REPRO_LOG_OWNER_PID" not in os.environ  # restored on exit

    def test_foreign_owner_routes_to_sidecar(self, log_file, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_OWNER_PID", "1")  # some other process
        assert obs.event_sink() == f"{log_file}.{os.getpid()}"
        obs.log_event("probe")
        sidecar = log_file.parent / f"{log_file.name}.{os.getpid()}"
        assert sidecar.exists() and not log_file.exists()
        (event,) = read_events(sidecar)
        assert event["event"] == "probe"

    def test_claim_is_idempotent_and_respects_prior_owner(self, log_file, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_OWNER_PID", "1")
        with obs.claim_log_ownership():  # must not steal
            assert os.environ["REPRO_LOG_OWNER_PID"] == "1"
        assert os.environ["REPRO_LOG_OWNER_PID"] == "1"

    def test_claim_without_log_is_noop(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        monkeypatch.delenv("REPRO_LOG_OWNER_PID", raising=False)
        with obs.claim_log_ownership():
            assert "REPRO_LOG_OWNER_PID" not in os.environ


    def test_figures_run_owns_the_log_only_while_it_runs(self, log_file, capsys):
        """An in-process ``main()`` leaves the environment as it found it, so
        a ``repro-figures`` child started afterwards owns the log itself:
        its events reach the log, and no sidecar is left unmerged."""
        from repro.harness.cli import main

        before = dict(os.environ)
        assert main(["table2"]) == 0
        capsys.readouterr()
        assert dict(os.environ) == before
        own = len(read_events(log_file))
        src = str(Path(__file__).resolve().parents[1] / "src")
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "table2"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        written = read_events(log_file)[own:]
        assert written and {event["pid"] for event in written} == {child.pid}
        assert sorted(path.name for path in log_file.parent.iterdir()) == [log_file.name]


class TestSweepSpans:
    def test_accuracy_sweep_opens_benchmark_spans(self, obs_enabled, monkeypatch):
        from repro.harness.sweep import accuracy_sweep

        monkeypatch.setenv("REPRO_SCALE", "0.1")
        accuracy_sweep(["bimodal"], [8 * 1024], benchmarks=["gzip"], instructions=30_000)
        assert obs.registry().timer("span.accuracy_sweep.benchmark").count == 1
        # The sweep-level root span wraps the per-benchmark ones.
        assert obs.registry().timer("span.accuracy_sweep").count == 1
