"""Tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import service  # noqa: E402
from stats import (  # noqa: E402
    Tally,
    fold_self_times,
    latency_summary,
    max_deviation,
    nearest_rank,
    per_op_minimum,
    quartiles,
    samples_beyond,
    spread,
    tail_percentile,
)


# -- the tail percentile rule ------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),  # even the median leaves only 5 beyond
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),  # the service's floor: >= 10 samples beyond p99
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_tail_value_is_nearest_rank():
    values = list(range(1, 1001))  # 1..1000
    summary = latency_summary(reversed(values))
    assert summary["n"] == 1000
    assert summary["p50"] == 500
    assert summary["tail_p"] == 99.0
    assert summary["tail"] == 990
    assert sum(1 for v in values if v > summary["tail"]) == 10


def test_nearest_rank_edges():
    assert nearest_rank([7.0], 50.0) == 7.0
    assert nearest_rank([1.0, 2.0], 0.0) == 1.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 75.0) == 3.0
    with pytest.raises(ValueError):
        nearest_rank([], 50.0)


# -- per-op minimum and spread ----------------------------------------------------------


def test_per_op_minimum_takes_each_ops_fastest_repetition():
    samples = {"a": [0.30, 0.21, 0.25], "b": [1.2, 1.1], "c": [0.05]}
    assert per_op_minimum(samples) == {"a": 0.21, "b": 1.1, "c": 0.05}


def test_per_op_minimum_rejects_an_op_without_samples():
    with pytest.raises(ValueError):
        per_op_minimum({"a": []})


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 10.1, 12.0, 10.0, 10.3]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert max_deviation(values) == pytest.approx((12.0 - q2) / q2)


# -- self-time folding --------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 1, "parent": None, "name": "op", "start": 0.0, "duration": 10.0},
        {"id": 2, "parent": 1, "name": "eval", "start": 1.0, "duration": 6.0},
        {"id": 3, "parent": 2, "name": "load", "start": 2.0, "duration": 1.5},
        {"id": 4, "parent": 1, "name": "save", "start": 8.0, "duration": 1.0},
    ]
    folded = fold_self_times(spans)
    assert folded["op"]["self"] == pytest.approx(3.0)
    assert folded["eval"]["self"] == pytest.approx(4.5)
    assert folded["load"]["self"] == pytest.approx(1.5)
    assert folded["save"]["self"] == pytest.approx(1.0)
    assert sum(f["self"] for f in folded.values()) == pytest.approx(10.0)


def test_spans_of_one_name_fold_together():
    spans = [
        {"id": "r", "parent": None, "name": "sweep", "start": 0.0, "duration": 10.0},
        {"id": "a", "parent": "r", "name": "eval", "start": 1.0, "duration": 2.0},
        {"id": "b", "parent": "r", "name": "eval", "start": 4.0, "duration": 5.0},
    ]
    folded = fold_self_times(spans)
    assert folded["sweep"]["self"] == pytest.approx(3.0)
    assert folded["eval"] == {"count": 2, "total": 7.0, "self": 7.0}


def test_aggregated_leaf_calls_count_against_their_parent():
    spans = [
        {"id": 1, "parent": None, "name": "sim", "start": 0.0, "duration": 4.0},
        {"id": 2, "parent": 1, "name": "blocks", "start": 0.0, "duration": 1.0},
        {"id": "leaf0", "parent": 1, "name": "caches", "duration": 1.5, "calls": 300},
    ]
    folded = fold_self_times(spans)
    assert folded["sim"]["self"] == pytest.approx(1.5)
    assert folded["caches"] == {"count": 300, "total": 1.5, "self": 1.5}


def test_self_time_never_negative():
    spans = [
        {"id": 1, "parent": None, "name": "p", "start": 0.0, "duration": 1.0},
        {"id": "leaf", "parent": 1, "name": "x", "duration": 1.2},
    ]
    assert fold_self_times(spans)["p"]["self"] == 0.0


# -- error_rate accounting -------------------------------------------------------------------


def test_error_rate_counts_failed_over_attempted():
    tally = Tally(keep=2)
    assert tally.error_rate == 0.0
    assert tally.record(None)
    assert not tally.record("wrong result")
    assert not tally.record("non-200")
    assert not tally.record("exception")
    tally.record(None)
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.error_rate == pytest.approx(0.6)
    assert tally.reasons == ["wrong result", "non-200"]


def test_job_reply_that_is_not_a_json_object_is_a_failed_op():
    check = service.job_reply_check("abc", 200)
    assert check(200, b'{"job_id": "abc", "state": "completed"}') is None
    assert check(200, b'{"job_id": "abc", "state": "running"}') is not None
    assert check(404, b'{"job_id": "abc", "state": "completed"}') is not None
    assert "not JSON" in check(502, b"<html>bad gateway</html>")
    assert "not a JSON object" in check(200, b"[1, 2]")


# -- the committed benchmark definition ---------------------------------------------------------


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == [(name, unit) for name, unit, _ in layers.LAYERS]
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}
