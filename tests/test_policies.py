"""Unit tests for the fetch-policy layer."""

from __future__ import annotations

import pytest

from repro.core.cascading import CascadingPredictor
from repro.core.dualpath import DualPathPolicy
from repro.core.overriding import OverridingPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.uarch.policies import (
    CascadingFetchPolicy,
    DualPathFetchPolicy,
    FetchPolicy,
    OverridingPolicy,
    PolicyPrediction,
    SingleCyclePolicy,
)
from tests.conftest import alternating_stream


class TestSingleCyclePolicy:
    def test_no_bubbles_ever(self):
        policy = SingleCyclePolicy(GsharePredictor(1024))
        for pc, taken in alternating_stream(100):
            prediction = policy.predict(pc)
            assert prediction.bubble_cycles == 0
            assert prediction.half_width_cycles == 0
            policy.update(pc, taken)

    def test_name_identifies_component(self):
        assert "gshare" in SingleCyclePolicy(GsharePredictor(1024)).name


class TestOverridingPolicy:
    def test_bubble_only_on_disagreement(self):
        overriding = OverridingPredictor(
            GsharePredictor(4096), slow_latency=5, quick=BimodalPredictor(256)
        )
        policy = OverridingPolicy(overriding)
        bubbles = 0
        for pc, taken in alternating_stream(300):
            prediction = policy.predict(pc)
            assert prediction.bubble_cycles in (0, 5)
            bubbles += prediction.bubble_cycles
            policy.update(pc, taken)
        # gshare learns TNTN, bimodal cannot: disagreements must occur.
        assert bubbles > 0
        assert policy.override_bubbles == bubbles


class TestDualPathPolicy:
    def test_half_width_window_reported(self):
        policy = DualPathFetchPolicy(DualPathPolicy(GsharePredictor(1024), latency=6))
        prediction = policy.predict(0x1000)
        assert prediction.half_width_cycles == 6
        assert prediction.bubble_cycles == 0
        policy.update(0x1000, True)


class TestCascadingPolicy:
    def test_gap_consumed_per_prediction(self):
        cascading = CascadingPredictor(
            GsharePredictor(4096), slow_latency=4, quick=BimodalPredictor(256)
        )
        policy = CascadingFetchPolicy(cascading)
        policy.note_gap(10)
        policy.predict(0x1000)
        policy.update(0x1000, True)
        assert cascading.stats.slow_used == 1
        # Without a fresh gap report the next branch uses the quick path.
        policy.predict(0x1004)
        policy.update(0x1004, True)
        assert cascading.stats.slow_used == 1

    def test_negative_gap_clamped(self):
        cascading = CascadingPredictor(GsharePredictor(1024), slow_latency=4)
        policy = CascadingFetchPolicy(cascading)
        policy.note_gap(-5)
        policy.predict(0x1000)
        policy.update(0x1000, True)
        assert cascading.stats.slow_used == 0


class TestPolicyPrediction:
    def test_defaults(self):
        prediction = PolicyPrediction(taken=True)
        assert prediction.bubble_cycles == 0
        assert prediction.half_width_cycles == 0


def test_policy_without_stream_cannot_be_created():
    """The simulator drives only :meth:`FetchPolicy.stream`: a policy that
    implements just ``predict``/``update`` fails when it is built, not with
    wrong results later."""

    class PerBranchOnly(FetchPolicy):
        def predict(self, pc):
            return PolicyPrediction(taken=True)

        def update(self, pc, taken):
            return taken

    with pytest.raises(TypeError, match="stream"):
        PerBranchOnly()
