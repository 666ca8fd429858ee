"""Hierarchical overriding predictor (Section 2.6.1).

The delay-hiding scheme the paper evaluates (and argues against): a quick,
single-cycle predictor answers immediately so fetch can proceed; a slower,
more accurate predictor answers ``latency`` cycles later and *overrides* the
quick prediction when they disagree, squashing the instructions fetched in
between.  The override penalty is proportional to the slow predictor's
latency — the paper's optimistic assumption charges exactly the access
latency, with no extra squash or refetch cost.

Accuracy-wise the final prediction is always the slow predictor's (it has
the last word).  Performance-wise every disagreement costs an override
bubble, and every final misprediction costs a full pipeline flush — the
tradeoff Figures 2 and 7 quantify.

The quick predictor the paper grants: a 2K-entry gshare assumed to answer in
one cycle (Section 4.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.common.errors import ConfigurationError
from repro.predictors.base import BranchPredictor
from repro.predictors.engines import direction_stream
from repro.predictors.gshare import GsharePredictor
from repro.timing.latency import QUICK_PREDICTOR_ENTRIES


@dataclass
class OverridingOutcome:
    """Per-branch result of an overriding prediction pair."""

    quick_taken: bool
    final_taken: bool

    @property
    def overridden(self) -> bool:
        """True when the slow predictor disagreed and overrode the quick one."""
        return self.quick_taken != self.final_taken


@dataclass
class OverridingStats:
    """Bookkeeping for the override mechanism."""

    predictions: int = 0
    overrides: int = 0
    quick_mispredictions: int = 0
    final_mispredictions: int = 0

    @property
    def override_rate(self) -> float:
        """Fraction of predictions where quick and slow disagreed —
        the fraction paying the override bubble (Section 4.5)."""
        if self.predictions == 0:
            return 0.0
        return self.overrides / self.predictions

    @property
    def final_misprediction_rate(self) -> float:
        """Misprediction rate of the final (slow) predictions."""
        if self.predictions == 0:
            return 0.0
        return self.final_mispredictions / self.predictions


class OverridingPredictor:
    """A quick predictor backed by a slow, more accurate one.

    Not a :class:`BranchPredictor` subclass on purpose: its per-branch
    product is the *pair* of predictions (:class:`OverridingOutcome`), which
    the cycle simulator converts into bubbles.  For pure accuracy
    measurements, the final prediction is the slow component's.
    """

    def __init__(
        self,
        slow: BranchPredictor,
        slow_latency: int,
        quick: BranchPredictor | None = None,
        quick_latency: int = 1,
    ) -> None:
        if slow_latency < 1:
            raise ConfigurationError(f"slow latency must be >= 1 cycle, got {slow_latency}")
        if quick_latency < 1:
            raise ConfigurationError(f"quick latency must be >= 1 cycle, got {quick_latency}")
        if quick_latency > slow_latency:
            raise ConfigurationError(
                "the quick predictor must not be slower than the slow one "
                f"({quick_latency} > {slow_latency})"
            )
        if quick is None:
            quick = GsharePredictor(entries=QUICK_PREDICTOR_ENTRIES)
        self.quick = quick
        self.slow = slow
        self.quick_latency = quick_latency
        self.slow_latency = slow_latency
        self.stats = OverridingStats()
        self._recorded = OverridingStats()

    @property
    def name(self) -> str:
        """Display label naming both components."""
        return f"override({self.quick.name}->{self.slow.name})"

    @property
    def override_penalty_cycles(self) -> int:
        """Bubble paid when the slow predictor overrides the quick one:
        the slow predictor's access latency (the paper's optimistic cost)."""
        return self.slow_latency

    @property
    def storage_bits(self) -> int:
        """Combined hardware state of both components, in bits."""
        return self.quick.storage_bits + self.slow.storage_bits

    def predict(self, pc: int) -> OverridingOutcome:
        """Predict with both components; returns the pair of directions."""
        quick_taken = self.quick.predict(pc)
        final_taken = self.slow.predict(pc)
        return OverridingOutcome(quick_taken=quick_taken, final_taken=final_taken)

    def update(self, pc: int, taken: bool) -> bool:
        """Resolve the in-flight branch in both components; returns True
        when the *final* (slow) prediction was correct."""
        quick_correct = self.quick.update(pc, taken)
        final_correct = self.slow.update(pc, taken)
        self.stats.predictions += 1
        if not quick_correct:
            self.stats.quick_mispredictions += 1
        if not final_correct:
            self.stats.final_mispredictions += 1
        if quick_correct != final_correct:
            self.stats.overrides += 1
        return final_correct

    def predict_stream(self, pcs: np.ndarray, takens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (quick, final) direction of every branch of a whole
        ``(pc, taken)`` stream.

        Both components train on every branch whatever the other says, so
        each runs its own stream (on the engine ``REPRO_ENGINE`` resolves
        to); components and :attr:`stats` end exactly as
        ``predict``/``update`` per branch would leave them.
        """
        quick = direction_stream(self.quick, pcs, takens)
        final = direction_stream(self.slow, pcs, takens)
        self.stats.predictions += len(takens)
        self.stats.quick_mispredictions += int(np.count_nonzero(quick != takens))
        self.stats.final_mispredictions += int(np.count_nonzero(final != takens))
        self.stats.overrides += int(np.count_nonzero(quick != final))
        return quick, final

    def record_stats(self, registry) -> None:
        """Publish agreement/disagreement/penalty counts into ``registry``.

        Only the delta since the previous call is added, so the harness and
        the cycle simulator can both flush the same wrapper without
        double-counting.  Counters: ``override.predictions``,
        ``override.agreements``, ``override.disagreements`` and
        ``override.penalty_cycles`` (disagreements x the slow latency — the
        bubble cycles the override mechanism costs, Section 4.5).
        """
        stats, last = self.stats, self._recorded
        predictions = stats.predictions - last.predictions
        disagreements = stats.overrides - last.overrides
        if predictions == 0 and disagreements == 0:
            return
        registry.counter("override.predictions").inc(predictions)
        registry.counter("override.agreements").inc(predictions - disagreements)
        registry.counter("override.disagreements").inc(disagreements)
        registry.counter("override.penalty_cycles").inc(
            disagreements * self.override_penalty_cycles
        )
        self._recorded = replace(stats)
