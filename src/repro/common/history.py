"""History registers.

Global and local branch histories are shift registers of outcome bits.  The
paper's predictors update history *speculatively* at prediction time and
repair it on a misprediction; ``HistoryRegister`` supports both through
checkpoint/restore, and ``LocalHistoryTable`` provides the per-branch
histories used by local and hybrid predictors.
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import is_power_of_two, mask
from repro.common.errors import ConfigurationError


class HistoryRegister:
    """A global history shift register of ``length`` outcome bits.

    Bit 0 is the most recent outcome.  ``value`` is the packed integer view
    used to form prediction indices.
    """

    def __init__(self, length: int) -> None:
        if length < 0:
            raise ConfigurationError(f"history length must be >= 0, got {length}")
        self.length = length
        self._value = 0

    @property
    def value(self) -> int:
        """Packed history bits; most recent outcome in bit 0."""
        return self._value

    def push(self, taken: bool) -> None:
        """Shift in a new outcome as the most recent bit."""
        if self.length == 0:
            return
        self._value = ((self._value << 1) | int(taken)) & mask(self.length)

    def bit(self, age: int) -> bool:
        """Outcome of the branch ``age`` steps in the past (0 = newest)."""
        if not 0 <= age < max(self.length, 1):
            raise ConfigurationError(f"history bit age {age} out of range")
        return bool((self._value >> age) & 1)

    def checkpoint(self) -> int:
        """Snapshot for misprediction recovery."""
        return self._value

    def restore(self, snapshot: int) -> None:
        """Restore a snapshot taken before a mispredicted branch, then the
        caller pushes the corrected outcome."""
        self._value = snapshot & mask(self.length)

    def clear(self) -> None:
        """Reset to all-not-taken history."""
        self._value = 0


class LocalHistoryTable:
    """A table of per-branch local histories (first level of a PAg/PAs).

    ``entries`` rows of ``length``-bit shift registers, indexed by low PC
    bits.  Speculative update with checkpointing is supported at row
    granularity: the simulator checkpoints only the row it touches.
    """

    def __init__(self, entries: int, length: int) -> None:
        if not is_power_of_two(entries):
            raise ConfigurationError(f"local history entries must be a power of two, got {entries}")
        if length <= 0:
            raise ConfigurationError(f"local history length must be positive, got {length}")
        self.entries = entries
        self.length = length
        self._rows = np.zeros(entries, dtype=np.int64)

    @property
    def storage_bits(self) -> int:
        """Hardware state held by the table, in bits."""
        return self.entries * self.length

    def row_index(self, pc: int) -> int:
        """Which row the branch at ``pc`` maps to."""
        return (pc >> 2) & (self.entries - 1)

    def read(self, pc: int) -> int:
        """Packed local history for the branch at ``pc``."""
        return int(self._rows[self.row_index(pc)])

    def push(self, pc: int, taken: bool) -> None:
        """Shift an outcome into the branch's local history."""
        row = self.row_index(pc)
        self._rows[row] = ((int(self._rows[row]) << 1) | int(taken)) & mask(self.length)

    def checkpoint(self, pc: int) -> tuple[int, int]:
        """Snapshot (row, value) for the row ``pc`` maps to."""
        row = self.row_index(pc)
        return row, int(self._rows[row])

    def restore(self, snapshot: tuple[int, int]) -> None:
        """Restore a row snapshot taken by :meth:`checkpoint`."""
        row, value = snapshot
        self._rows[row] = value

    def clear(self) -> None:
        """Reset every local history to all-not-taken."""
        self._rows[:] = 0

    def snapshot(self) -> np.ndarray:
        """Copy of every row's packed history (checkpoint/diff tooling)."""
        return self._rows.copy()

    def restore_all(self, rows: np.ndarray) -> None:
        """Restore a snapshot taken by :meth:`snapshot`."""
        if rows.shape != self._rows.shape:
            raise ConfigurationError("local history snapshot shape mismatch")
        self._rows[:] = rows
