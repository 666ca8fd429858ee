"""Branch-predictor interface.

All direction predictors implement the same two-phase protocol the paper's
simulator drives:

1. ``predict(pc)`` — produce a taken/not-taken prediction for a conditional
   branch being fetched at ``pc``.  The predictor may stash per-branch state
   (the index it used, history snapshots) for the matching update.
2. ``update(pc, taken)`` — the branch resolved; train tables and advance
   histories with the true outcome.

Driving the pair strictly in order on a trace is exactly the paper's
*optimistic* assumption for complex predictors: speculative history update
with zero-latency recovery after a misprediction is functionally identical to
updating history with the actual outcome at prediction time.  (Our pipelined
gshare.fast timing model in :mod:`repro.core.pipeline_model` additionally
demonstrates the recovery machinery explicitly.)

Predictors are single-use per branch: calling ``predict`` twice without an
intervening ``update`` for the same stream is a :class:`ProtocolError` —
out-of-order driving would silently corrupt history state otherwise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ProtocolError


@dataclass
class PredictorStats:
    """Running accuracy bookkeeping shared by every predictor."""

    predictions: int = 0
    mispredictions: int = 0

    @property
    def misprediction_rate(self) -> float:
        """Fraction of predictions that were wrong (0.0 when unused)."""
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions

    def record(self, correct: bool) -> None:
        """Count one prediction outcome."""
        self.predictions += 1
        if not correct:
            self.mispredictions += 1


@dataclass
class _Pending:
    """Prediction context awaiting its update call."""

    pc: int
    prediction: bool
    context: object = field(default=None)


class BranchPredictor(ABC):
    """Abstract conditional-branch direction predictor."""

    #: Short machine-readable identifier; set by subclasses.
    name: str = "abstract"

    def __init__(self) -> None:
        self.stats = PredictorStats()
        self._pending: _Pending | None = None

    # -- public protocol ---------------------------------------------------

    def predict(self, pc: int) -> bool:
        """Predict the direction of the conditional branch at ``pc``."""
        if self._pending is not None:
            raise ProtocolError(
                f"{self.name}: predict({pc:#x}) called while branch "
                f"{self._pending.pc:#x} is awaiting update"
            )
        prediction, context = self._predict(pc)
        self._pending = _Pending(pc=pc, prediction=prediction, context=context)
        return prediction

    def update(self, pc: int, taken: bool) -> bool:
        """Resolve the in-flight branch; returns True if it was predicted
        correctly.  Trains tables and advances histories."""
        pending = self._pending
        if pending is None:
            raise ProtocolError(f"{self.name}: update({pc:#x}) with no prediction in flight")
        if pending.pc != pc:
            raise ProtocolError(
                f"{self.name}: update({pc:#x}) does not match in-flight branch "
                f"{pending.pc:#x}"
            )
        self._pending = None
        correct = pending.prediction == taken
        self.stats.record(correct)
        self._update(pc, taken, pending.prediction, pending.context)
        return correct

    def tables(self) -> dict[str, object]:
        """Named counter tables, for checkpointing and diff tooling.

        Subclasses with table state override this; the batch engine's
        differential harness compares every named table bit-for-bit
        against the scalar reference.  Keys are stable identifiers, values
        are :class:`repro.common.counters.CounterTable` instances.
        """
        return {}

    def state(self) -> dict[str, np.ndarray]:
        """Every piece of mutable predictor state, as named integer arrays.

        The default covers :meth:`tables`, the global ``history`` register
        when the predictor has one, and the running stats; families with
        other state (local histories, weights, loop entries, composite
        internals) extend it.  The batch engine's differential harness and
        the conformance matrix compare it whole, so state missing here is
        state nothing checks.
        """
        state = {name: table.snapshot() for name, table in self.tables().items()}
        history = getattr(self, "history", None)
        if history is not None:
            state["history"] = np.array([history.value], dtype=np.int64)
        state["stats"] = np.array(
            [self.stats.predictions, self.stats.mispredictions], dtype=np.int64
        )
        return state

    def peek(self, pc: int) -> bool:
        """Prediction for ``pc`` without entering the in-flight protocol.

        Used by overriding wrappers that need both component predictions for
        the same branch; must not mutate any state.
        """
        prediction, _ = self._predict(pc)
        return prediction

    @property
    @abstractmethod
    def storage_bits(self) -> int:
        """Hardware state consumed by the predictor, in bits (the paper's
        hardware-budget accounting)."""

    @property
    def storage_bytes(self) -> int:
        """Hardware state rounded up to whole bytes."""
        return (self.storage_bits + 7) // 8

    # -- subclass hooks ----------------------------------------------------

    @abstractmethod
    def _predict(self, pc: int) -> tuple[bool, object]:
        """Return (prediction, context).  Must not mutate state."""

    @abstractmethod
    def _update(self, pc: int, taken: bool, predicted: bool, context: object) -> None:
        """Train tables and advance speculative state with the true outcome."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} {self.storage_bytes}B>"
