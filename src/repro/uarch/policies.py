"""Fetch-engine branch-direction policies.

The cycle simulator is agnostic to how directions are produced; a policy
wraps a predictor (or predictor pair) and reports, per conditional branch,
the final direction plus the front-end cost of obtaining it:

* :class:`SingleCyclePolicy` — a predictor that answers in one cycle with
  no extra cost.  Used for gshare.fast (which earns this by construction)
  and for the *ideal* zero-delay versions of the complex predictors
  (Figure 2 / Figure 7-left).
* :class:`OverridingPolicy` — quick + slow pair; every disagreement costs
  an override bubble equal to the slow predictor's latency (Figure 2 /
  Figure 7-right).
* :class:`DualPathPolicy` wrapper — no bubbles, but fetch runs at half
  width while the slow prediction is in flight, and a second branch inside
  the window stalls fetch (Section 2.6.2's scalability problem).
* :class:`CascadingFetchPolicy` — quick + slow pair where the fetch gap
  since the previous branch decides which answer is used.

The components of every policy train on every conditional branch in trace
order, whatever the timing, so the simulator asks for the whole stream up
front (:meth:`FetchPolicy.stream`) instead of calling ``predict``/``update``
per branch; only cascading's quick/slow choice is left to the timing loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.cascading import CascadingPredictor
from repro.core.dualpath import DualPathPolicy
from repro.core.overriding import OverridingPredictor
from repro.predictors.base import BranchPredictor
from repro.predictors.engines import direction_stream


@dataclass(frozen=True)
class PolicyPrediction:
    """Front-end product of a direction prediction."""

    taken: bool
    bubble_cycles: int = 0
    half_width_cycles: int = 0


@dataclass(frozen=True)
class PolicyStream:
    """Front-end product of a policy for a whole conditional-branch stream:
    per branch, what :meth:`FetchPolicy.predict` would have returned."""

    #: Final direction of each branch; for a gap-arbitrated pair, the slow
    #: component's.
    taken: np.ndarray
    bubble_cycles: np.ndarray | None = None
    half_width_cycles: np.ndarray | None = None
    #: Gap-arbitrated pair (cascading): the quick component's directions,
    #: used for each branch fetched fewer than ``gap_cycles`` cycles after
    #: the previous one.  The timing loop makes that choice and reports it
    #: back through the policy's ``record_choices``.
    quick: np.ndarray | None = None
    gap_cycles: int = 0


class FetchPolicy(ABC):
    """A fetch policy: per-branch ``predict``/``update`` in trace order, and
    the whole-stream :meth:`stream` the cycle simulator drives."""

    name: str = "abstract"

    @abstractmethod
    def predict(self, pc: int) -> PolicyPrediction:
        """Direction for the conditional branch at ``pc`` plus its cost."""

    @abstractmethod
    def update(self, pc: int, taken: bool) -> bool:
        """Resolve the branch; True when the final prediction was correct."""

    @abstractmethod
    def stream(self, pcs: np.ndarray, takens: np.ndarray) -> PolicyStream:
        """Predict and resolve every branch of a ``(pc, taken)`` stream at
        once, leaving the policy as per-branch ``predict``/``update`` would."""


class SingleCyclePolicy(FetchPolicy):
    """A predictor treated as answering within the fetch cycle."""

    def __init__(self, predictor: BranchPredictor) -> None:
        self.predictor = predictor
        self.name = f"1cyc({predictor.name})"

    def predict(self, pc: int) -> PolicyPrediction:
        return PolicyPrediction(taken=self.predictor.predict(pc))

    def update(self, pc: int, taken: bool) -> bool:
        return self.predictor.update(pc, taken)

    def stream(self, pcs: np.ndarray, takens: np.ndarray) -> PolicyStream:
        return PolicyStream(taken=direction_stream(self.predictor, pcs, takens))


class OverridingPolicy(FetchPolicy):
    """Quick/slow overriding pair: disagreement costs the slow latency."""

    def __init__(self, overriding: OverridingPredictor) -> None:
        self.overriding = overriding
        self.name = overriding.name
        self.override_bubbles = 0

    def predict(self, pc: int) -> PolicyPrediction:
        outcome = self.overriding.predict(pc)
        bubble = self.overriding.override_penalty_cycles if outcome.overridden else 0
        if outcome.overridden:
            self.override_bubbles += bubble
        return PolicyPrediction(taken=outcome.final_taken, bubble_cycles=bubble)

    def update(self, pc: int, taken: bool) -> bool:
        return self.overriding.update(pc, taken)

    def stream(self, pcs: np.ndarray, takens: np.ndarray) -> PolicyStream:
        quick, final = self.overriding.predict_stream(pcs, takens)
        bubbles = np.where(quick != final, self.overriding.override_penalty_cycles, 0)
        self.override_bubbles += int(bubbles.sum())
        return PolicyStream(taken=final, bubble_cycles=bubbles)


class DualPathFetchPolicy(FetchPolicy):
    """Slow predictor hidden by dual-path fetch: half-width windows."""

    def __init__(self, dualpath: DualPathPolicy) -> None:
        self.dualpath = dualpath
        self.name = dualpath.name

    def predict(self, pc: int) -> PolicyPrediction:
        return PolicyPrediction(
            taken=self.dualpath.predict(pc),
            half_width_cycles=self.dualpath.half_bandwidth_window(),
        )

    def update(self, pc: int, taken: bool) -> bool:
        return self.dualpath.update(pc, taken)

    def stream(self, pcs: np.ndarray, takens: np.ndarray) -> PolicyStream:
        windows = np.full(len(pcs), self.dualpath.half_bandwidth_window(), dtype=np.int64)
        return PolicyStream(
            taken=direction_stream(self.dualpath.predictor, pcs, takens),
            half_width_cycles=windows,
        )


class CascadingFetchPolicy(FetchPolicy):
    """Cascading/lookahead prediction: the slow predictor's answer is used
    only when the fetch gap since the previous branch covers its latency.

    Per branch, the gap comes from :meth:`note_gap` before each
    ``predict`` call; with no report it is assumed zero (quick path).  The
    cycle simulator instead takes both components' directions from
    :meth:`stream`, makes each choice in its timing loop and reports the
    totals through :meth:`record_choices`.
    """

    def __init__(self, cascading: CascadingPredictor) -> None:
        self.cascading = cascading
        self.name = cascading.name
        self._gap_cycles = 0

    def note_gap(self, cycles: int) -> None:
        self._gap_cycles = max(int(cycles), 0)

    def predict(self, pc: int) -> PolicyPrediction:
        taken = self.cascading.predict(pc, self._gap_cycles)
        self._gap_cycles = 0
        return PolicyPrediction(taken=taken)

    def update(self, pc: int, taken: bool) -> bool:
        return self.cascading.update(pc, taken)

    def stream(self, pcs: np.ndarray, takens: np.ndarray) -> PolicyStream:
        cascading = self.cascading
        return PolicyStream(
            taken=direction_stream(cascading.slow, pcs, takens),
            quick=direction_stream(cascading.quick, pcs, takens),
            gap_cycles=cascading.slow_latency,
        )

    def record_choices(self, predictions: int, slow_used: int, mispredictions: int) -> None:
        """Account the timing loop's choices for a :meth:`stream` run:
        ``predictions`` branches, ``slow_used`` of them answered by the
        slow component, ``mispredictions`` of them wrong."""
        stats = self.cascading.stats
        stats.predictions += predictions
        stats.slow_used += slow_used
        stats.mispredictions += mispredictions
