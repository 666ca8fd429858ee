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

from dataclasses import dataclass

import numpy as np

from repro.common.bits import is_power_of_two
from repro.common.errors import ConfigurationError
from repro.predictors.base import BranchPredictor


@dataclass
class _LoopEntry:
    tag: int = -1
    trip_count: int = 0  # completed-loop iteration count (0 = unknown)
    current_count: int = 0  # iterations seen in the loop in progress
    confidence: int = 0  # consecutive confirmations of trip_count
    direction: bool = True  # the "body" direction (exit is the opposite)

    def fields(self) -> tuple[int, int, int, int, bool]:
        """(tag, trip_count, current_count, confidence, direction)."""
        return self.tag, self.trip_count, self.current_count, self.confidence, self.direction

    def assign(self, tag: int, trip: int, current: int, confidence: int, direction: bool) -> None:
        """Overwrite every field, in :meth:`fields` order."""
        self.tag = tag
        self.trip_count = trip
        self.current_count = current
        self.confidence = confidence
        self.direction = bool(direction)


#: An untouched entry; never mutated (entries are created on first update).
_COLD = _LoopEntry()
_COLD_FIELDS = _COLD.fields()


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
        #: Entries by index, created on first update: building all of them
        #: up front cost more than evaluating a whole 100k-instruction trace
        #: at 64KB.  An absent entry is a cold one.
        self._table: dict[int, _LoopEntry] = {}

    @property
    def storage_bits(self) -> int:
        """Hardware state consumed by the predictor, in bits."""
        return self.entries * self.ENTRY_BITS

    def snapshot_entries(self) -> np.ndarray:
        """Every entry as a row of (tag, trip_count, current_count,
        confidence, direction) — checkpoint/diff tooling."""
        rows = np.empty((self.entries, len(_COLD_FIELDS)), dtype=np.int64)
        rows[:] = _COLD_FIELDS
        for index, entry in self._table.items():
            rows[index] = entry.fields()
        return rows

    def entry_fields(self, index: int) -> tuple[int, int, int, int, bool]:
        """Entry ``index`` as :meth:`_LoopEntry.fields` (cold if untouched)."""
        return self._table.get(index, _COLD).fields()

    def assign_entry(self, index: int, fields: tuple[int, int, int, int, bool]) -> None:
        """Overwrite entry ``index``, in :meth:`_LoopEntry.fields` order."""
        self._touch(index).assign(*fields)

    def _touch(self, index: int) -> _LoopEntry:
        """Entry ``index``, created cold on first touch."""
        entry = self._table.get(index)
        if entry is None:
            entry = self._table[index] = _LoopEntry()
        return entry

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
        entry = self._table.get(index, _COLD)
        return entry.tag == tag and entry.confidence >= self.confidence_threshold

    def _predict(self, pc: int) -> tuple[bool, object]:
        index, tag = self._entry(pc)
        entry = self._table.get(index, _COLD)
        if entry.tag != tag:
            return True, (index, tag)  # cold: loop-back branches are mostly taken
        confident = entry.confidence >= self.confidence_threshold
        if confident and entry.trip_count and entry.current_count + 1 >= entry.trip_count:
            prediction = not entry.direction  # exit iteration
        else:
            prediction = entry.direction
        return prediction, (index, tag)

    def _update(self, pc: int, taken: bool, predicted: bool, context: object) -> None:
        index, tag = context
        entry = self._touch(index)
        if entry.tag != tag:
            # Allocate: assume taken is the body direction of a new loop.
            entry.tag = tag
            entry.direction = taken
            entry.trip_count = 0
            entry.current_count = 1
            entry.confidence = 0
            return
        if taken == entry.direction:
            entry.current_count = min(entry.current_count + 1, self.MAX_TRIP)
            return
        # Exit iteration: the loop just completed current_count body trips.
        completed = entry.current_count + 1
        if completed == entry.trip_count:
            entry.confidence = min(entry.confidence + 1, 3)
        else:
            entry.trip_count = completed
            entry.confidence = 0
        entry.current_count = 0
