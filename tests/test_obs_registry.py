"""Tests for the metrics registry: instruments, snapshots, rendering,
enablement, and the zero-cost disabled path."""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.common import settings
from repro.common.errors import ConfigurationError
from repro.harness.experiment import measure_accuracy
from repro.obs.registry import DEFAULT_BUCKETS, Histogram, MetricsRegistry, Timer


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter(self, registry):
        counter = registry.counter("x")
        counter.inc()
        counter.inc(5)
        assert registry.counter("x").value == 6
        assert registry.counter("x") is counter

    def test_gauge(self, registry):
        registry.gauge("g").set(3)
        registry.gauge("g").set(1.5)
        assert registry.gauge("g").value == 1.5

    def test_timer(self, registry):
        timer = registry.timer("t")
        timer.observe(0.5)
        timer.observe(1.5)
        assert timer.count == 2
        assert timer.total_seconds == pytest.approx(2.0)
        assert timer.mean_seconds == pytest.approx(1.0)
        assert timer.min_seconds == 0.5
        assert timer.max_seconds == 1.5

    def test_timer_empty_mean(self):
        assert Timer("t").mean_seconds == 0.0

    def test_histogram_buckets(self, registry):
        histogram = registry.histogram("h", bounds=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 99.0):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1]  # <=1, <=2, overflow
        assert histogram.count == 4
        assert histogram.total == pytest.approx(102.0)

    def test_histogram_default_bounds(self):
        assert Histogram("h").bounds == DEFAULT_BUCKETS


class TestRegistry:
    def test_snapshot_roundtrips_to_json(self, registry):
        import json

        registry.counter("c").inc(2)
        registry.gauge("g").set(1.0)
        registry.timer("t").observe(0.1)
        registry.histogram("h").observe(0.01)
        registry.record_attribution("p/t", [{"pc": 1, "executions": 2, "mispredictions": 1}])
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["timers"]["t"]["count"] == 1
        assert snapshot["attributions"]["p/t"][0]["pc"] == 1

    def test_render_sections(self, registry):
        registry.counter("hits").inc(7)
        registry.timer("phase").observe(0.25)
        registry.record_attribution(
            "gshare/gcc", [{"pc": 0x400, "executions": 10, "mispredictions": 4}]
        )
        text = registry.render()
        assert "Counters" in text and "hits" in text and "7" in text
        assert "Timers" in text and "phase" in text
        assert "Hard-to-predict branches: gshare/gcc" in text and "0x400" in text

    def test_render_empty(self, registry):
        assert registry.render() == "(no metrics recorded)"

    def test_reset(self, registry):
        registry.counter("c").inc()
        registry.record_attribution("k", [])
        registry.reset()
        assert registry.snapshot()["counters"] == {}
        assert registry.snapshot()["attributions"] == {}


class TestEnablement:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        obs.set_enabled(None)
        assert not obs.enabled()

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        obs.set_enabled(None)
        assert obs.enabled()
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert not obs.enabled()

    @pytest.mark.parametrize(
        "value, on",
        [("1", True), ("TRUE", True), (" yes ", True), ("On", True),
         ("", False), ("0", False), ("False", False), ("no", False), (" OFF", False)],
    )
    @pytest.mark.parametrize("name", ["REPRO_PROFILE", "REPRO_VERBOSE"])
    def test_flag_spellings(self, monkeypatch, name, value, on):
        monkeypatch.setenv(name, value)
        assert settings.get(name) is on

    @pytest.mark.parametrize("value", ["flase", "of", "2", "ture", "enabled", "o n", "yes!"])
    @pytest.mark.parametrize(
        "name, read", [("REPRO_PROFILE", obs.enabled), ("REPRO_VERBOSE", obs.verbose)]
    )
    def test_misspelt_flag_is_refused(self, monkeypatch, name, read, value):
        """A value that is neither on nor off raises, naming the variable
        and the value, instead of reading as on."""
        monkeypatch.setenv(name, value)
        obs.set_enabled(None)
        obs.set_verbose(None)
        with pytest.raises(ConfigurationError, match=rf"{name}={value!r}.*on: 1, true"):
            read()

    def test_pin_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        obs.set_enabled(False)
        try:
            assert not obs.enabled()
            assert obs.enabled_override() is False
        finally:
            obs.set_enabled(None)

    def test_module_helpers_hit_default_registry(self, obs_enabled):
        obs.counter("helper").inc()
        assert obs.registry().counter("helper").value == 1


class TestDisabledOverhead:
    def test_disabled_measurement_never_touches_registry(
        self, small_trace, monkeypatch
    ):
        """The disabled path must not record anything — not one instrument."""
        from repro.predictors.bimodal import BimodalPredictor

        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        obs.set_enabled(None)

        def explode(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("registry touched on the disabled path")

        monkeypatch.setattr(obs.registry(), "counter", explode)
        monkeypatch.setattr(obs.registry(), "timer", explode)
        monkeypatch.setattr(obs.registry(), "histogram", explode)
        monkeypatch.setattr(obs.registry(), "record_attribution", explode)
        result = measure_accuracy(BimodalPredictor(1024), small_trace, engine="scalar")
        assert result.branches > 0
        assert result.attribution is None

    def test_disabled_overhead_smoke(self, small_trace):
        """measure_accuracy with obs disabled tracks a hand-rolled copy of
        its scalar loop — the instrumentation adds no measurable cost.

        Both sides iterate the same trace object the same way (its
        ``conditional_branches()`` under ``enumerate``, with the warm-up
        check), and their samples interleave, so host noise falls on both
        alike.  This is a smoke test (generous 1.5x bound, best of 5) so
        it stays robust on noisy CI machines; the strict guarantee is the
        structural one above: the scored loop is byte-for-byte the pre-obs
        loop.
        """
        from repro.predictors.bimodal import BimodalPredictor

        warmup_branches = 0

        def reference_loop():
            predictor = BimodalPredictor(1024)
            branches = mispredictions = 0
            for position, (pc, taken) in enumerate(small_trace.conditional_branches()):
                predictor.predict(pc)
                correct = predictor.update(pc, taken)
                if position < warmup_branches:
                    continue
                branches += 1
                if not correct:
                    mispredictions += 1
            return mispredictions

        def instrumented():
            predictor = BimodalPredictor(1024)
            return measure_accuracy(predictor, small_trace, engine="scalar")

        baseline, measured = [], []
        for _ in range(5):
            baseline.append(_timed(reference_loop))
            measured.append(_timed(instrumented))
        assert min(measured) < min(baseline) * 1.5


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
