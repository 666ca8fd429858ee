"""Tests for the experiment harness: measurements, aggregation, reporting,
scale control and sweeps."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.core.overriding import OverridingPredictor
from repro.harness.aggregate import arithmetic_mean, geometric_mean, harmonic_mean
from repro.harness.experiment import measure_accuracy, measure_override
from repro.harness.report import format_budget, render_series_table, render_table
from repro.harness.scale import benchmark_names, scale_factor, warmup_branches
from repro.harness.sweep import (
    FULL_BUDGETS,
    LARGE_BUDGETS,
    accuracy_sweep,
    build_family,
    hmean_ipc_by_family_budget,
    ipc_sweep,
    make_policy,
    mean_by_family_budget,
)
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor


class TestAggregates:
    def test_arithmetic(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0

    def test_harmonic(self):
        assert harmonic_mean([1.0, 1.0]) == 1.0
        assert harmonic_mean([2.0, 4.0]) == pytest.approx(8.0 / 3.0)

    def test_harmonic_below_arithmetic(self):
        values = [0.5, 1.2, 2.0, 1.7]
        assert harmonic_mean(values) < arithmetic_mean(values)

    def test_geometric(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        for fn in (arithmetic_mean, harmonic_mean, geometric_mean):
            with pytest.raises(ConfigurationError):
                fn([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            harmonic_mean([1.0, 0.0])


class TestMeasurement:
    def test_accuracy_on_constant_stream(self, small_trace):
        predictor = BimodalPredictor(4096)
        result = measure_accuracy(predictor, small_trace)
        assert result.branches == small_trace.conditional_branch_count
        assert 0 < result.misprediction_rate < 1

    def test_warmup_excluded_from_score(self, small_trace):
        predictor_a = BimodalPredictor(4096)
        predictor_b = BimodalPredictor(4096)
        full = measure_accuracy(predictor_a, small_trace)
        warm = measure_accuracy(predictor_b, small_trace, warmup_branches=1000)
        assert warm.branches == full.branches - 1000
        # Scoring after warm-up should not be worse than including cold start.
        assert warm.misprediction_rate <= full.misprediction_rate + 0.02

    def test_override_measurement(self, small_trace):
        overriding = OverridingPredictor(GsharePredictor(16384), slow_latency=3)
        result = measure_override(overriding, small_trace)
        assert result.branches == small_trace.conditional_branch_count
        assert 0 <= result.override_rate < 1
        assert result.quick_mispredictions >= 0
        # quick(2K gshare) should not beat the bigger slow gshare overall
        assert result.final_mispredictions <= result.quick_mispredictions * 1.3

    @pytest.mark.parametrize("engine", ["auto", "scalar"])
    def test_override_streams_match_per_branch_loop(self, small_trace, engine, monkeypatch):
        """Whole-stream measurement equals driving the pair branch by
        branch: counts, attribution, stats and component state."""
        from repro.obs.attribution import attribution_from_counts

        monkeypatch.setenv("REPRO_ENGINE", engine)
        warmup = 500

        def pair():
            return OverridingPredictor(build_family("perceptron", 16384), slow_latency=3)

        stream = pair()
        result = measure_override(stream, small_trace, warmup_branches=warmup, attribution=True)
        loop = pair()
        counts = {"final": 0, "quick": 0, "overrides": 0}
        executions: dict[int, int] = {}
        wrong: dict[int, int] = {}
        for position, (pc, taken) in enumerate(small_trace.conditional_branches()):
            outcome = loop.predict(pc)
            loop.update(pc, taken)
            if position < warmup:
                continue
            executions[pc] = executions.get(pc, 0) + 1
            counts["final"] += outcome.final_taken != taken
            counts["quick"] += outcome.quick_taken != taken
            counts["overrides"] += outcome.overridden
            if outcome.final_taken != taken:
                wrong[pc] = wrong.get(pc, 0) + 1
        assert result.branches == sum(executions.values())
        assert (result.final_mispredictions, result.quick_mispredictions, result.overrides) == (
            counts["final"],
            counts["quick"],
            counts["overrides"],
        )
        assert result.attribution == attribution_from_counts(
            loop.name, small_trace.name, executions, wrong
        )
        assert stream.stats == loop.stats
        for mine, theirs in ((stream.quick, loop.quick), (stream.slow, loop.slow)):
            assert {k: v.tolist() for k, v in mine.state().items()} == {
                k: v.tolist() for k, v in theirs.state().items()
            }


class TestReport:
    def test_format_budget(self):
        assert format_budget(65536) == "64K"
        assert format_budget(100) == "100"

    def test_render_table_alignment(self):
        text = render_table("T", ["a", "bb"], [[1, 2], [33, 4]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[2:]}) == 1  # aligned rows

    def test_render_series(self):
        text = render_series_table(
            "S", "Budget", [1024, 2048], {"x": {1024: 1.0, 2048: 2.0}}
        )
        assert "1K" in text and "2K" in text and "2.00" in text

    def test_render_series_missing_cell(self):
        text = render_series_table("S", "B", [1024], {"x": {}})
        assert "-" in text


class TestScale:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_factor() == 1.0

    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert scale_factor() == 2.5

    def test_bad_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "lots")
        with pytest.raises(ConfigurationError):
            scale_factor()

    def test_benchmark_subset(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCHMARKS", "gcc,eon")
        assert benchmark_names() == ["gcc", "eon"]

    def test_benchmark_subset_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCHMARKS", "gcc,doom")
        with pytest.raises(ConfigurationError):
            benchmark_names()

    def test_warmup_fraction(self):
        assert warmup_branches(1000) == 200

    def test_benchmark_subset_dedupes_preserving_order(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCHMARKS", "eon,gcc,eon,gcc,gzip")
        assert benchmark_names() == ["eon", "gcc", "gzip"]

    def test_resolved_config_keys(self, monkeypatch):
        from repro.harness.scale import resolved_config

        monkeypatch.setenv("REPRO_SCALE", "0.5")
        monkeypatch.setenv("REPRO_BENCHMARKS", "gcc,eon")
        monkeypatch.setenv("REPRO_ENGINE", "scalar")
        monkeypatch.setenv("REPRO_JOBS", "3")
        config = resolved_config()
        assert set(config) == {
            "scale",
            "benchmarks",
            "engine",
            "jobs",
            "trace_store",
            "result_store",
            "accuracy_instructions",
            "ipc_instructions",
            "warmup_fraction",
            "campaign",
            "service",
            "families",
        }
        assert set(config["campaign"]) == {"run_dir", "stale_seconds", "poll_seconds"}
        assert config["campaign"]["stale_seconds"] == 600.0
        assert set(config["service"]) == {
            "data_dir",
            "workers",
            "max_pending",
            "body_limit",
            "request_timeout",
            "max_wait",
            "drain_timeout",
        }
        from repro.predictors import registry

        assert sorted(config["families"]) == registry.family_names()
        assert config["families"]["gshare_fast"]["single_cycle"] is True
        assert config["families"]["gshare"]["batch_kernel"] == "gshare"
        assert config["scale"] == 0.5
        assert config["benchmarks"] == ["gcc", "eon"]
        assert config["engine"] == "scalar"
        assert config["jobs"] == 3
        assert config["accuracy_instructions"] == 300_000


class TestSweeps:
    def test_budget_ladders(self):
        assert FULL_BUDGETS[0] == 2 * 1024
        assert FULL_BUDGETS[-1] == 512 * 1024
        assert LARGE_BUDGETS[0] == 16 * 1024

    def test_build_family_includes_gshare_fast(self):
        predictor = build_family("gshare_fast", 16 * 1024)
        assert predictor.name == "gshare_fast"

    def test_accuracy_sweep_shape(self):
        cells = accuracy_sweep(
            ["bimodal", "gshare"], [8 * 1024], benchmarks=["gzip"], instructions=30_000
        )
        assert len(cells) == 2
        means = mean_by_family_budget(cells)
        assert ("bimodal", 8 * 1024) in means

    def test_make_policy_modes(self):
        assert make_policy("gshare_fast", 16 * 1024, "ideal").name.startswith("1cyc")
        assert "override" in make_policy("perceptron", 16 * 1024, "overriding").name
        with pytest.raises(ValueError):
            make_policy("perceptron", 16 * 1024, "telepathy")

    def test_ipc_sweep_shape(self):
        cells = ipc_sweep(
            ["gshare_fast"], [16 * 1024], mode="ideal", benchmarks=["gzip"], instructions=30_000
        )
        assert len(cells) == 1
        assert cells[0].ipc > 0
        hmeans = hmean_ipc_by_family_budget(cells)
        assert hmeans[("gshare_fast", 16 * 1024)] == pytest.approx(cells[0].ipc)
