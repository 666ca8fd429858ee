"""Branch target prediction: BTB and return-address stack.

Table 1: a 512-entry, 2-way set-associative branch target buffer.  The BTB
supplies targets for taken branches; a miss means the front end cannot
redirect until the target is computed in decode, a short bubble.  Returns
are predicted by a classic return-address stack pushed by calls.

Both structures see their operations in trace order whatever the timing,
so the simulator replays a whole trace's operations at once (``replay``);
``lookup``/``install`` and ``push``/``pop`` are the same models one
operation at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bits import is_power_of_two
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
        self.ways = ways
        self.stats = BtbStats()
        # Per set: tag -> target, least recently used first.
        self._sets: list[dict[int, int]] = [{} for _ in range(self.sets)]

    def _index(self, pc: int) -> tuple[int, int]:
        line = pc >> 2
        return line % self.sets, line // self.sets

    def lookup(self, pc: int) -> int | None:
        """Predicted target for the branch at ``pc``, or None on miss."""
        set_index, tag = self._index(pc)
        entries = self._sets[set_index]
        self.stats.lookups += 1
        target = entries.pop(tag, None)
        if target is None:
            self.stats.misses += 1
            return None
        entries[tag] = target  # LRU bump
        return target

    def install(self, pc: int, target: int) -> None:
        """Insert or refresh the target for the branch at ``pc``."""
        set_index, tag = self._index(pc)
        entries = self._sets[set_index]
        entries.pop(tag, None)
        entries[tag] = target
        if len(entries) > self.ways:
            del entries[next(iter(entries))]

    def replay(self, pcs: list[int], targets: list[int]) -> list[bool]:
        """``lookup`` then ``install`` for each branch in order; returns
        True where the lookup supplied the branch's target."""
        sets = self._sets
        set_count = self.sets
        ways = self.ways
        correct = []
        misses = 0
        for pc, target in zip(pcs, targets):
            line = pc >> 2
            entries = sets[line % set_count]
            tag = line // set_count
            previous = entries.pop(tag, None)
            if previous is None:
                misses += 1
                if len(entries) == ways:
                    del entries[next(iter(entries))]
            correct.append(previous == target)
            entries[tag] = target
        self.stats.lookups += len(correct)
        self.stats.misses += misses
        return correct


class ReturnAddressStack:
    """Fixed-depth RAS; overflow discards the oldest entry (as hardware
    does), so deeply recursive call chains can mispredict on unwind."""

    def __init__(self, depth: int = 16) -> None:
        if depth < 1:
            raise ConfigurationError(f"RAS depth must be >= 1, got {depth}")
        self.depth = depth
        self._stack: list[int] = []
        self.overflows = 0

    def push(self, return_address: int) -> None:
        """Record a call's return address."""
        self._stack.append(return_address)
        if len(self._stack) > self.depth:
            self._stack.pop(0)
            self.overflows += 1

    def pop(self) -> int | None:
        """Predicted return target, or None when the stack is empty."""
        if self._stack:
            return self._stack.pop()
        return None

    def replay(self, calls: list[bool], addresses: list[int]) -> list[bool]:
        """Push each call's return address and pop for each return, in
        order; returns, per operation, False only for a return whose
        target (its address) the stack did not predict."""
        stack = self._stack
        depth = self.depth
        predicted = []
        for call, address in zip(calls, addresses):
            if call:
                stack.append(address)
                if len(stack) > depth:
                    del stack[0]
                    self.overflows += 1
                predicted.append(True)
            else:
                predicted.append(bool(stack) and stack.pop() == address)
        return predicted

    def __len__(self) -> int:
        return len(self._stack)
