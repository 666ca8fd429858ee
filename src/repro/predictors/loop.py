"""Loop predictor component.

Predicts branches that behave as loop exits: taken (or not taken) a fixed
number of consecutive times, then the opposite direction once.  Each entry
tracks the observed trip count of the last completed loop and a confidence
counter; once the same trip count repeats, the predictor can call the exit
iteration exactly — something no counter-based PHT can do for trip counts
longer than its history.

Used as a component of the multi-component hybrid (Evers' multi-hybrid
includes a loop predictor among its components).
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import is_power_of_two
from repro.common.errors import ConfigurationError
from repro.predictors.base import BranchPredictor

#: Columns of an entry row: the tag, the completed-loop iteration count
#: (0 = unknown), the iterations seen in the loop in progress, the
#: consecutive confirmations of the trip count, and the "body" direction
#: (the exit is the opposite).
TAG, TRIP, CURRENT, CONFIDENCE, DIRECTION = range(5)

#: An untouched entry's row.
_UNSEEN = (-1, 0, 0, 0, 1)


class LoopPredictor(BranchPredictor):
    """Tagged table of loop trip-count monitors.

    ``confidence_threshold`` confirmations are required before the entry
    overrides the fallback prediction (the body direction).
    """

    name = "loop"

    #: storage per entry: tag(8) + trip(10) + current(10) + conf(2) + dir(1)
    ENTRY_BITS = 31
    MAX_TRIP = 1023

    def __init__(self, entries: int, confidence_threshold: int = 2) -> None:
        super().__init__()
        if not is_power_of_two(entries):
            raise ConfigurationError(f"loop predictor entries must be a power of two, got {entries}")
        if confidence_threshold < 1:
            raise ConfigurationError("confidence threshold must be >= 1")
        self.entries = entries
        self.confidence_threshold = confidence_threshold
        #: One row per entry, in the column order above.
        self._entries = np.tile(np.array(_UNSEEN, dtype=np.int64), (entries, 1))

    @property
    def storage_bits(self) -> int:
        """Hardware state consumed by the predictor, in bits."""
        return self.entries * self.ENTRY_BITS

    def snapshot_entries(self) -> np.ndarray:
        """Every entry as a row of (tag, trip_count, current_count,
        confidence, direction) — checkpoint/diff tooling."""
        return self._entries.copy()

    def restore_entries(self, rows: np.ndarray) -> None:
        """Restore a snapshot taken by :meth:`snapshot_entries`."""
        if rows.shape != self._entries.shape:
            raise ConfigurationError("loop entry snapshot shape mismatch")
        self._entries[:] = rows

    def state(self) -> dict[str, np.ndarray]:
        """Loop entries and stats (diff tooling)."""
        return {**super().state(), "entries": self.snapshot_entries()}

    def _entry(self, pc: int) -> tuple[int, int]:
        """(index, tag) of ``pc``'s entry."""
        index = (pc >> 2) & (self.entries - 1)
        return index, (pc >> 2) >> index.bit_length() & 0xFF

    def is_confident(self, pc: int) -> bool:
        """True when the entry for ``pc`` has a confirmed trip count."""
        index, tag = self._entry(pc)
        entry_tag, _, _, confidence, _ = self._entries[index].tolist()
        return entry_tag == tag and confidence >= self.confidence_threshold

    def _predict(self, pc: int) -> tuple[bool, object]:
        index, tag = self._entry(pc)
        fields = self._entries[index].tolist()
        entry_tag, trip, current, confidence, direction = fields
        if entry_tag != tag:
            prediction = True  # cold: loop-back branches are mostly taken
        elif confidence >= self.confidence_threshold and trip and current + 1 >= trip:
            prediction = not direction  # exit iteration
        else:
            prediction = bool(direction)
        return prediction, (index, tag, fields)

    def _update(self, pc: int, taken: bool, predicted: bool, context: object) -> None:
        # The entry is as _predict read it: nothing writes it in between.
        index, tag, (entry_tag, trip, current, confidence, direction) = context
        entries = self._entries
        if entry_tag != tag:
            # Allocate: assume taken is the body direction of a new loop.
            entries[index] = (tag, 0, 1, 0, taken)
            return
        if taken == direction:
            entries[index, CURRENT] = min(current + 1, self.MAX_TRIP)
            return
        # Exit iteration: the loop just completed current_count body trips.
        completed = current + 1
        if completed == trip:
            entries[index, CONFIDENCE] = min(confidence + 1, 3)
        else:
            entries[index, TRIP] = completed
            entries[index, CONFIDENCE] = 0
        entries[index, CURRENT] = 0
