"""Tests for run aggregation: span-tree reconstruction, phase/worker/store
rollups, critical path, and the regression gate."""

from __future__ import annotations

import pytest

from repro.obs import aggregate


def span(name, span_id, parent_id=None, pid=1, start=0.0, duration=1.0, **attrs):
    return {
        "event": "span",
        "name": name,
        "trace_id": "t1",
        "span_id": span_id,
        "parent_id": parent_id,
        "pid": pid,
        "start_unix": start,
        "duration_seconds": duration,
        "ts": start + duration,
        "attrs": attrs,
    }


@pytest.fixture
def run_events():
    """A two-worker parallel run: sweep > run > four shards, one straggler."""
    return [
        span("accuracy_sweep", "s-root", None, pid=1, start=0.0, duration=10.0),
        span("parallel.run", "s-run", "s-root", pid=1, start=0.1, duration=9.8),
        span("parallel.shard", "s-a", "s-run", pid=2, start=0.2, duration=2.0,
             shard="gcc__gshare"),
        span("parallel.shard", "s-b", "s-run", pid=3, start=0.3, duration=2.5,
             shard="gcc__bimodal"),
        span("parallel.shard", "s-c", "s-run", pid=2, start=2.2, duration=1.5,
             shard="eon__gshare"),
        span("parallel.shard", "s-d", "s-run", pid=3, start=2.7, duration=7.0,
             shard="eon__bimodal"),
        {"event": "store", "store": "trace", "op": "hits", "n": 3, "ts": 1.0, "pid": 2},
        {"event": "store", "store": "trace", "op": "misses", "n": 1, "ts": 1.1, "pid": 3},
        {"event": "store", "store": "result", "op": "writes", "n": 4, "ts": 1.2, "pid": 2},
        {"event": "store", "store": "result", "op": "evictions", "n": 2, "ts": 1.3, "pid": 2},
        {"event": "counter", "counters": {"trace_cache.hits": 6}, "ts": 9.0, "pid": 1},
        {
            "event": "run_summary",
            "label": "accuracy_sweep",
            "summary": {
                "shards": {"executed": 4, "resumed": 0, "incomplete": 0},
                "retries": 1,
                "trace_store": {"hits": 3, "misses": 1},
                "result_store": {"writes": 4},
            },
            "ts": 9.9,
            "pid": 1,
        },
    ]


class TestSpanTree:
    def test_tree_links_across_pids(self, run_events):
        tree = aggregate.build_span_tree(run_events)
        assert [n.name for n in tree.roots] == ["accuracy_sweep"]
        assert not tree.orphans and not tree.unclosed
        run = tree.roots[0].children[0]
        assert run.name == "parallel.run"
        assert sorted(c.attrs["shard"] for c in run.children) == [
            "eon__bimodal", "eon__gshare", "gcc__bimodal", "gcc__gshare",
        ]
        assert {c.pid for c in run.children} == {2, 3}

    def test_orphan_and_unclosed_detection(self):
        events = [
            span("lost", "s-x", "s-never-closed"),
            {"event": "span_open", "name": "crashed", "span_id": "s-open",
             "trace_id": "t1", "ts": 0.0, "pid": 1},
        ]
        tree = aggregate.build_span_tree(events)
        assert [n.name for n in tree.orphans] == ["lost"]
        assert [r["name"] for r in tree.unclosed] == ["crashed"]

    def test_walk_orders_children_by_start(self, run_events):
        tree = aggregate.build_span_tree(run_events)
        names = [(depth, node.attrs.get("shard", node.name)) for depth, node in tree.walk()]
        assert names == [
            (0, "accuracy_sweep"),
            (1, "parallel.run"),
            (2, "gcc__gshare"),
            (2, "gcc__bimodal"),
            (2, "eon__gshare"),
            (2, "eon__bimodal"),
        ]


class TestRollups:
    def test_phase_stats_self_time_clamps(self, run_events):
        phases = aggregate.phase_stats(aggregate.build_span_tree(run_events))
        assert phases["parallel.shard"]["count"] == 4
        assert phases["parallel.shard"]["total_seconds"] == pytest.approx(13.0)
        assert phases["parallel.shard"]["max_seconds"] == pytest.approx(7.0)
        # Children (13s of concurrent shards) exceed the run span's 9.8s
        # wall: self time floors at zero instead of going negative.
        assert phases["parallel.run"]["self_seconds"] == 0.0
        assert phases["accuracy_sweep"]["self_seconds"] == pytest.approx(0.2)

    def test_worker_stats_and_utilization(self, run_events):
        workers = aggregate.worker_stats(aggregate.build_span_tree(run_events))
        assert set(workers) == {"2", "3"}
        assert workers["2"]["spans"] == 2
        assert workers["2"]["busy_seconds"] == pytest.approx(3.5)
        assert workers["3"]["busy_seconds"] == pytest.approx(9.5)
        assert workers["3"]["utilization"] == pytest.approx(9.5 / 9.8)

    def test_straggler_report_names_slowest_shard(self, run_events):
        stats = aggregate.straggler_stats(aggregate.build_span_tree(run_events))
        assert stats["count"] == 4
        assert stats["slowest"][0]["shard"] == "eon__bimodal"
        assert stats["max_seconds"] == pytest.approx(7.0)
        assert stats["max_over_mean"] == pytest.approx(7.0 / 3.25)

    def test_critical_path_descends_latest_end(self, run_events):
        path = aggregate.critical_path(aggregate.build_span_tree(run_events))
        assert [step["name"] for step in path] == [
            "accuracy_sweep", "parallel.run", "parallel.shard",
        ]
        assert path[-1]["shard"] == "eon__bimodal"  # ends at 9.7, the latest
        assert path[0]["start_offset_seconds"] == 0.0

    def test_store_rollup_rates(self, run_events):
        stores = aggregate.store_rollup(run_events)
        assert stores["trace"]["hits"] == 3
        assert stores["trace"]["hit_rate"] == pytest.approx(0.75)
        assert stores["result"]["hit_rate"] is None  # no lookups yet
        assert stores["result"]["eviction_pressure"] == pytest.approx(0.5)

    def test_counter_totals_merge_events_and_summary(self, run_events):
        totals = aggregate.counter_totals(run_events)
        assert totals["shards.executed"] == 4
        assert totals["retries"] == 1
        assert totals["trace_store.hits"] == 3
        assert totals["result_store.writes"] == 4
        assert totals["trace_cache.hits"] == 6

    def test_aggregate_run_report(self, run_events):
        report = aggregate.aggregate_run(run_events)
        assert report["schema"] == aggregate.AGGREGATE_SCHEMA
        assert report["trace_ids"] == ["t1"]
        assert report["wall_seconds"] == pytest.approx(10.0)
        assert report["spans"]["total"] == 6
        assert report["spans"]["orphans"] == []

    def test_empty_event_log(self):
        report = aggregate.aggregate_run([])
        assert report["wall_seconds"] == 0.0
        assert report["phases"] == {}
        assert report["critical_path"] == []


class TestRegressionGate:
    def baseline(self, run_events):
        return aggregate.baseline_snapshot(aggregate.aggregate_run(run_events))

    def test_baseline_excludes_volatile_counters(self, run_events):
        snapshot = self.baseline(run_events)
        assert "trace_cache.hits" not in snapshot["counters"]
        assert snapshot["counters"]["shards.executed"] == 4
        assert snapshot["phases"]["parallel.run"] == pytest.approx(9.8)

    def test_identical_run_passes(self, run_events):
        agg = aggregate.aggregate_run(run_events)
        assert aggregate.regress(agg, self.baseline(run_events)) == []

    def test_slowdown_past_threshold_fails(self, run_events):
        snapshot = self.baseline(run_events)
        slow = [dict(e) for e in run_events]
        for event in slow:
            if event.get("span_id") == "s-d":  # straggler gets 2x slower
                event["duration_seconds"] = 14.0
        agg = aggregate.aggregate_run(slow)
        kinds = {(v["kind"], v["name"]) for v in aggregate.regress(agg, snapshot)}
        assert ("phase", "parallel.shard") in kinds
        assert ("wall", "run") in kinds

    def test_slowdown_within_threshold_passes(self, run_events):
        snapshot = self.baseline(run_events)
        agg = aggregate.aggregate_run(run_events)
        agg["wall_seconds"] *= 1.1
        assert aggregate.regress(agg, snapshot, threshold=0.25) == []

    def test_counter_drift_always_fails(self, run_events):
        snapshot = self.baseline(run_events)
        agg = aggregate.aggregate_run(run_events)
        agg["counters"]["retries"] = 5
        violations = aggregate.regress(agg, snapshot, counters_only=True)
        assert violations == [
            {
                "kind": "counter",
                "name": "retries",
                "baseline": 1,
                "current": 5,
                "ratio": None,
            }
        ]

    def test_counter_the_baseline_lacks_fails(self, run_events):
        snapshot = self.baseline(run_events)
        del snapshot["counters"]["shards.executed"]
        agg = aggregate.aggregate_run(run_events)
        violations = aggregate.regress(agg, snapshot, counters_only=True)
        assert violations == [
            {
                "kind": "counter-unlisted",
                "name": "shards.executed",
                "baseline": None,
                "current": 4,
                "ratio": None,
            }
        ]

    def test_volatile_counter_the_baseline_lacks_passes(self, run_events):
        snapshot = self.baseline(run_events)
        agg = aggregate.aggregate_run(run_events)
        assert "trace_cache.hits" in agg["counters"]
        assert "trace_cache.hits" not in snapshot["counters"]
        assert aggregate.regress(agg, snapshot, counters_only=True) == []
        assert aggregate.regress(agg, snapshot) == []

    def test_counters_only_ignores_timings(self, run_events):
        snapshot = self.baseline(run_events)
        agg = aggregate.aggregate_run(run_events)
        agg["wall_seconds"] *= 100
        assert aggregate.regress(agg, snapshot, counters_only=True) == []

    def test_missing_phase_is_reported(self, run_events):
        snapshot = self.baseline(run_events)
        snapshot["phases"]["vanished_phase"] = 1.0
        agg = aggregate.aggregate_run(run_events)
        kinds = {(v["kind"], v["name"]) for v in aggregate.regress(agg, snapshot)}
        assert ("phase-missing", "vanished_phase") in kinds

    def test_new_phase_in_run_is_ignored(self, run_events):
        snapshot = self.baseline(run_events)
        del snapshot["phases"]["parallel.shard"]
        agg = aggregate.aggregate_run(run_events)
        assert aggregate.regress(agg, snapshot) == []


class TestCampaignWorkerRuns:
    """The executor's shape: run > one worker span per process > shards,
    with counters reported in each worker's ``campaign.worker`` summary."""

    @pytest.fixture
    def worker_events(self):
        def summary(pid, executed, failures, hits):
            return {
                "event": "run_summary",
                "label": "campaign.worker",
                "summary": {
                    "cells": {
                        "cells_executed": executed,
                        "cells_regenerated": 0,
                        "claims": executed + 3,
                        "failures": failures,
                    },
                    "trace_store": {"hits": hits},
                    "result_store": {"writes": executed},
                },
                "ts": 10.0,
                "pid": pid,
            }

        return [
            span("accuracy_sweep", "s-root", None, pid=1, start=0.0, duration=10.5),
            span("campaign.run", "s-run", "s-root", pid=1, start=0.1, duration=10.3),
            # Worker 2 ran out of cells at 3.0 but polled until 10.2.
            span("campaign.worker", "w-2", "s-run", pid=2, start=0.2, duration=10.0),
            span("campaign.shard", "a", "w-2", pid=2, start=0.3, duration=2.7,
                 shard="gcc__gshare"),
            span("campaign.worker", "w-3", "s-run", pid=3, start=0.2, duration=9.8),
            span("campaign.shard", "b", "w-3", pid=3, start=0.4, duration=9.5,
                 shard="eon__bimodal"),
            {"event": "counter", "counters": {"campaign.claims": 7}, "ts": 10.0, "pid": 2},
            summary(2, 1, 1, 2),
            summary(3, 1, 0, 1),
        ]

    def test_counters_derive_from_worker_summaries(self, worker_events):
        totals = aggregate.counter_totals(worker_events)
        assert totals["shards.executed"] == 2
        assert totals["retries"] == 1
        assert totals["trace_store.hits"] == 3
        assert totals["result_store.writes"] == 2

    def test_claims_are_volatile(self, worker_events):
        snapshot = aggregate.baseline_snapshot(aggregate.aggregate_run(worker_events))
        assert "campaign.claims" not in snapshot["counters"]
        assert snapshot["counters"]["shards.executed"] == 2

    def test_stragglers_and_workers_come_from_shard_spans(self, worker_events):
        tree = aggregate.build_span_tree(worker_events)
        assert aggregate.straggler_stats(tree)["slowest"][0]["shard"] == "eon__bimodal"
        workers = aggregate.worker_stats(tree)
        assert workers["2"]["busy_seconds"] == pytest.approx(2.7)
        assert workers["3"]["utilization"] == pytest.approx(9.5 / 10.3)

    def test_critical_path_skips_an_idle_worker(self, worker_events):
        path = aggregate.critical_path(aggregate.build_span_tree(worker_events))
        assert [step["name"] for step in path] == [
            "accuracy_sweep", "campaign.run", "campaign.worker", "campaign.shard",
        ]
        assert path[-1]["shard"] == "eon__bimodal"
