"""Branch target prediction: BTB and return-address stack.

Table 1: a 512-entry, 2-way set-associative branch target buffer.  The BTB
supplies targets for taken branches; a miss means the front end cannot
redirect until the target is computed in decode, a short bubble.  Returns
are predicted by a classic return-address stack pushed by calls.

The simulator steps both structures' state arrays in its one pass over a
trace, in C (:func:`repro.native.simulate`); ``lookup``/``install`` and
``push``/``pop`` are the same models one operation at a time, in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.bits import is_power_of_two, log2_exact
from repro.common.errors import ConfigurationError


@dataclass
class BtbStats:
    """Lookup/miss counters for the BTB."""

    lookups: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses per lookup (0.0 before any lookup)."""
        if self.lookups == 0:
            return 0.0
        return self.misses / self.lookups


class BranchTargetBuffer:
    """Set-associative PC -> target cache with LRU replacement."""

    def __init__(self, entries: int = 512, ways: int = 2) -> None:
        if ways < 1:
            raise ConfigurationError(f"BTB associativity must be >= 1, got {ways}")
        if entries % ways:
            raise ConfigurationError(f"{entries} entries cannot be {ways}-way")
        self.sets = entries // ways
        if not is_power_of_two(self.sets):
            raise ConfigurationError(f"BTB set count must be a power of two, got {self.sets}")
        self.set_bits = log2_exact(self.sets)
        self.ways = ways
        self.stats = BtbStats()
        #: Per set, the resident entries least recently used first: the
        #: first ``fill[set]`` of ``tags[set]`` and their ``targets[set]``.
        #: The simulator's C core and the methods below update them in place.
        self.tags = np.zeros((self.sets, ways), dtype=np.int64)
        self.targets = np.zeros((self.sets, ways), dtype=np.int64)
        self.fill = np.zeros(self.sets, dtype=np.int64)

    def _entries(self, pc: int) -> tuple[int, int, dict[int, int]]:
        """(set, tag, resident tag -> target least recent first) of ``pc``."""
        line = pc >> 2
        index = line & (self.sets - 1)
        fill = self.fill[index]
        return index, line >> self.set_bits, dict(
            zip(self.tags[index, :fill].tolist(), self.targets[index, :fill].tolist())
        )

    def _store(self, index: int, entries: dict[int, int]) -> None:
        fill = len(entries)
        self.tags[index, :fill] = list(entries)
        self.targets[index, :fill] = list(entries.values())
        self.fill[index] = fill

    def lookup(self, pc: int) -> int | None:
        """Predicted target for the branch at ``pc``, or None on miss."""
        index, tag, entries = self._entries(pc)
        self.stats.lookups += 1
        target = entries.pop(tag, None)
        if target is None:
            self.stats.misses += 1
            return None
        entries[tag] = target  # LRU bump
        self._store(index, entries)
        return target

    def install(self, pc: int, target: int) -> None:
        """Insert or refresh the target for the branch at ``pc``."""
        index, tag, entries = self._entries(pc)
        entries.pop(tag, None)
        entries[tag] = target
        if len(entries) > self.ways:
            del entries[next(iter(entries))]
        self._store(index, entries)


class ReturnAddressStack:
    """Fixed-depth RAS; overflow discards the oldest entry (as hardware
    does), so deeply recursive call chains can mispredict on unwind."""

    def __init__(self, depth: int = 16) -> None:
        if depth < 1:
            raise ConfigurationError(f"RAS depth must be >= 1, got {depth}")
        self.depth = depth
        #: The return addresses, oldest first: the first ``counts[0]``
        #: entries; ``counts[1]`` counts overflows.  The simulator's C core
        #: and the methods below update them in place.
        self.stack = np.zeros(depth, dtype=np.int64)
        self.counts = np.zeros(2, dtype=np.int64)

    @property
    def overflows(self) -> int:
        """Pushes that discarded the oldest entry."""
        return int(self.counts[1])

    def push(self, return_address: int) -> None:
        """Record a call's return address."""
        size = int(self.counts[0])
        if size == self.depth:
            self.stack[:-1] = self.stack[1:].copy()
            self.stack[-1] = return_address
            self.counts[1] += 1
        else:
            self.stack[size] = return_address
            self.counts[0] = size + 1

    def pop(self) -> int | None:
        """Predicted return target, or None when the stack is empty."""
        size = int(self.counts[0])
        if size == 0:
            return None
        self.counts[0] = size - 1
        return int(self.stack[size - 1])

    def __len__(self) -> int:
        return int(self.counts[0])
