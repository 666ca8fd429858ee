"""Tests for per-branch misprediction attribution, scalar and batch."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.harness.analysis import per_site_accuracy
from repro.harness.experiment import measure_accuracy, measure_override
from repro.core.overriding import OverridingPredictor
from repro.obs.attribution import (
    Attribution,
    BranchSite,
    attribution_from_arrays,
    attribution_from_counts,
)
from repro.predictors import registry
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor


class TestAttributionObject:
    def test_sorted_by_contribution(self):
        attribution = attribution_from_counts(
            "p", "t", {1: 10, 2: 10, 3: 5}, {1: 2, 2: 7}
        )
        assert [site.pc for site in attribution.sites] == [2, 1, 3]
        assert attribution.branches == 25
        assert attribution.mispredictions == 9

    def test_top_and_rows(self):
        attribution = attribution_from_counts(
            "p", "t", {pc: 4 for pc in range(20)}, {pc: 1 for pc in range(15)}
        )
        assert len(attribution.top()) == 10
        rows = attribution.to_rows()
        assert len(rows) == 10
        assert set(rows[0]) == {"pc", "executions", "mispredictions"}

    def test_misprediction_rate(self):
        site = BranchSite(pc=4, executions=8, mispredictions=2)
        assert site.misprediction_rate == 0.25
        assert BranchSite(pc=4, executions=0, mispredictions=0).misprediction_rate == 0.0

    def test_render_table(self):
        attribution = attribution_from_counts("gshare", "gcc", {0x400: 6}, {0x400: 3})
        text = attribution.render()
        assert "Hard-to-predict branches: gshare/gcc" in text
        assert "0x400" in text and "50.0" in text

    def test_from_arrays_matches_counts(self):
        pcs = np.array([4, 8, 4, 12, 8, 4])
        wrong = np.array([True, False, True, False, True, False])
        by_arrays = attribution_from_arrays("p", "t", pcs, wrong)
        by_counts = attribution_from_counts(
            "p", "t", {4: 3, 8: 2, 12: 1}, {4: 2, 8: 1}
        )
        assert by_arrays == by_counts


class TestMeasurementAttribution:
    def test_scalar_matches_per_site_accuracy(self, small_trace):
        result = measure_accuracy(
            BimodalPredictor(1024), small_trace, engine="scalar", attribution=True
        )
        sites = per_site_accuracy(BimodalPredictor(1024), small_trace)
        expected = {site.pc: site.mispredictions for site in sites if site.mispredictions}
        actual = {
            site.pc: site.mispredictions
            for site in result.attribution.sites
            if site.mispredictions
        }
        assert actual == expected
        assert result.attribution.mispredictions == result.mispredictions
        assert result.attribution.branches == result.branches

    @pytest.mark.parametrize("family", registry.family_names())
    def test_batch_matches_scalar(self, family, small_trace):
        """Every family's per-branch table from the batch engine (which
        ``engine="auto"`` picks, e.g. for the service's attribution route)
        equals the scalar reference's."""
        scalar = measure_accuracy(
            registry.build(family, 8 * 1024), small_trace, engine="scalar", attribution=True
        )
        batch = measure_accuracy(
            registry.build(family, 8 * 1024), small_trace, engine="batch", attribution=True
        )
        assert batch.attribution == scalar.attribution

    def test_warmup_respected(self, small_trace):
        result = measure_accuracy(
            BimodalPredictor(1024),
            small_trace,
            warmup_branches=1000,
            engine="scalar",
            attribution=True,
        )
        assert result.attribution.branches == result.branches
        batch = measure_accuracy(
            GsharePredictor(16384),
            small_trace,
            warmup_branches=1000,
            engine="batch",
            attribution=True,
        )
        assert batch.attribution.branches == batch.branches
        assert batch.attribution.mispredictions == batch.mispredictions

    def test_off_by_default(self, small_trace):
        result = measure_accuracy(BimodalPredictor(1024), small_trace, engine="scalar")
        assert result.attribution is None

    def test_enabled_obs_collects_and_publishes(self, small_trace, obs_enabled):
        result = measure_accuracy(BimodalPredictor(1024), small_trace, engine="scalar")
        assert isinstance(result.attribution, Attribution)
        key = f"bimodal[{result.storage_bytes}B]/{small_trace.name}"
        assert key in obs.registry().attributions
        assert obs.registry().counter("accuracy.measurements").value == 1
        assert obs.registry().counter("accuracy.branches").value == result.branches

    def test_override_attribution(self, small_trace):
        overriding = OverridingPredictor(GsharePredictor(16384), slow_latency=3)
        result = measure_override(overriding, small_trace, attribution=True)
        assert result.attribution.mispredictions == result.final_mispredictions
        assert result.attribution.branches == result.branches

    def test_override_counters_into_registry(self, small_trace, obs_enabled):
        overriding = OverridingPredictor(GsharePredictor(16384), slow_latency=3)
        result = measure_override(overriding, small_trace)
        registry = obs.registry()
        assert registry.counter("override.predictions").value == result.branches
        assert registry.counter("override.disagreements").value == result.overrides
        assert (
            registry.counter("override.agreements").value
            == result.branches - result.overrides
        )
        assert (
            registry.counter("override.penalty_cycles").value
            == result.overrides * overriding.override_penalty_cycles
        )

    def test_record_stats_publishes_deltas_once(self, obs_enabled):
        overriding = OverridingPredictor(GsharePredictor(16384), slow_latency=3)
        for i in range(10):
            overriding.predict(0x400 + 4 * (i % 3))
            overriding.update(0x400 + 4 * (i % 3), i % 2 == 0)
        registry = obs.registry()
        overriding.record_stats(registry)
        first = registry.counter("override.predictions").value
        overriding.record_stats(registry)  # no new predictions: no double count
        assert registry.counter("override.predictions").value == first == 10


class TestSimulatorAccounting:
    def test_stall_cycles_by_cause(self, small_trace, obs_enabled):
        from repro.harness.sweep import make_policy
        from repro.uarch.simulator import CycleSimulator

        policy = make_policy("perceptron", 16 * 1024, "overriding")
        result = CycleSimulator(policy).run(small_trace)
        registry = obs.registry()
        assert registry.counter("sim.runs").value == 1
        assert registry.counter("sim.cycles").value == result.cycles
        assert registry.counter("sim.stall.mispredict").value == result.stalls.mispredict
        assert (
            registry.counter("sim.stall.override_bubble").value
            == result.stalls.override_bubble
        )
        # The overriding pair behind the policy published its stats too.
        assert registry.counter("override.predictions").value == result.conditional_branches

    def test_disabled_records_nothing(self, small_trace, monkeypatch):
        from repro.harness.sweep import make_policy
        from repro.uarch.simulator import CycleSimulator

        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        obs.set_enabled(None)
        obs.reset()
        CycleSimulator(make_policy("gshare_fast", 16 * 1024, "ideal")).run(small_trace)
        assert obs.registry().counters == {}


class TestBatchChunkTimings:
    def test_chunk_metrics_recorded(self, small_trace, obs_enabled):
        predictor = GsharePredictor(16384)
        measure_accuracy(predictor, small_trace, engine="batch")
        registry = obs.registry()
        assert registry.counter("batch.chunks").value >= 1
        assert (
            registry.counter("batch.chunk_branches").value
            == small_trace.conditional_branch_count
        )
        assert registry.timer("batch.chunk.gshare").count >= 1
        assert registry.histogram("batch.chunk_seconds").count >= 1
