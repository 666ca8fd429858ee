"""Tests for the loop predictor and the multi-component hybrid."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.loop import LoopPredictor
from repro.predictors.multicomponent import MultiComponentPredictor
from tests.conftest import loop_stream, run_stream


class TestLoopPredictor:
    def test_learns_fixed_trip_count(self):
        predictor = LoopPredictor(64)
        # After confidence builds, exit iterations are called exactly.
        wrong = run_stream(predictor, loop_stream(reps=50, trips=12))
        # First few loops train; afterwards near-perfect.
        assert wrong <= 3 + 12

    def test_long_trip_counts_beyond_history_reach(self):
        predictor = LoopPredictor(64)
        gshare = GsharePredictor(1024)  # 10-bit history < 40-trip loops
        stream = loop_stream(reps=30, trips=40)
        assert run_stream(predictor, stream) < run_stream(gshare, stream)

    def test_changing_trip_count_resets_confidence(self):
        predictor = LoopPredictor(64)
        run_stream(predictor, loop_stream(reps=10, trips=8))
        assert predictor.is_confident(0x40_0200)
        run_stream(predictor, loop_stream(reps=1, trips=9))
        run_stream(predictor, loop_stream(reps=1, trips=11))
        assert not predictor.is_confident(0x40_0200)

    def test_not_taken_body_direction(self):
        # A loop whose back edge is mostly NOT taken (inverted sense).
        predictor = LoopPredictor(64, confidence_threshold=2)
        stream = []
        for _ in range(40):
            for i in range(6):
                stream.append((0x5000, not (i < 5)))
        wrong = run_stream(predictor, stream)
        assert wrong / len(stream) < 0.25

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            LoopPredictor(12)
        with pytest.raises(ConfigurationError):
            LoopPredictor(64, confidence_threshold=0)

    def test_storage(self):
        assert LoopPredictor(64).storage_bits == 64 * LoopPredictor.ENTRY_BITS

    def test_entries_are_one_array_that_restores_exactly(self):
        """Untouched entries are cold rows; a snapshot restored into a fresh
        predictor continues exactly as the original, and a snapshot of the
        wrong shape is refused."""
        predictor = LoopPredictor(8)
        assert predictor.snapshot_entries().tolist() == [[-1, 0, 0, 0, 1]] * 8
        stream = loop_stream(reps=6, trips=5)
        run_stream(predictor, stream)
        copy = LoopPredictor(8)
        copy.restore_entries(predictor.snapshot_entries())
        assert run_stream(copy, stream) == run_stream(predictor, stream)
        assert (copy.snapshot_entries() == predictor.snapshot_entries()).all()
        with pytest.raises(ConfigurationError):
            copy.restore_entries(predictor.snapshot_entries()[:4])


class TestMultiComponent:
    def _build(self):
        return MultiComponentPredictor(
            [
                BimodalPredictor(256),
                LoopPredictor(64),
                GsharePredictor(1024),
            ],
            selector_entries=256,
        )

    def test_requires_two_components(self):
        with pytest.raises(ConfigurationError):
            MultiComponentPredictor([BimodalPredictor(64)])

    def test_learns_biased_branch(self):
        predictor = self._build()
        wrong = run_stream(predictor, [(0x1000, True)] * 80)
        assert wrong <= 4

    def test_selects_best_component_per_branch(self):
        """Mixed workload: a biased branch, an alternating branch, and a
        long fixed loop — each best served by a different component."""
        predictor = self._build()
        stream = []
        for rep in range(60):
            stream.append((0x1000, True))
            stream.append((0x2000, rep % 2 == 0))
            for i in range(20):
                stream.append((0x3000, i < 19))
        wrong = run_stream(predictor, stream)
        assert wrong / len(stream) < 0.10

    def test_beats_worst_component_on_mixed_stream(self):
        stream = []
        for rep in range(80):
            stream.append((0x1000, True))
            for i in range(25):
                stream.append((0x3000, i < 24))
        hybrid_wrong = run_stream(self._build(), stream)
        bimodal_wrong = run_stream(BimodalPredictor(256), stream)
        assert hybrid_wrong <= bimodal_wrong

    def test_peek_is_pure(self):
        predictor = self._build()
        run_stream(predictor, [(0x1000, True)] * 20)
        before = predictor._counters.copy()
        for _ in range(5):
            predictor.peek(0x1000)
        assert (predictor._counters == before).all()
        # protocol still clean after peeks
        predictor.predict(0x1000)
        predictor.update(0x1000, True)

    def test_storage_counts_components_and_selector(self):
        predictor = self._build()
        component_bits = sum(s.predictor.storage_bits for s in predictor.slots)
        assert predictor.storage_bits == component_bits + 256 * 3 * 2

    def test_component_names(self):
        assert predictor_names_unique(self._build().component_names())


def predictor_names_unique(names: list[str]) -> bool:
    return len(names) == len(set(names)) or len(names) >= 2
