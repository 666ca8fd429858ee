"""Cache models for the cycle simulator.

Table 1 of the paper fixes the hierarchy: 64KB direct-mapped L1 I- and
D-caches with 64-byte lines, and a 2MB 4-way L2 with 128-byte lines
(:data:`repro.uarch.config.PAPER_MACHINE`; :func:`machine_hierarchy`
builds any other geometry a :class:`MachineConfig` names).  The model
tracks tags only (no data), with true-LRU replacement kept as one row of
tags per set, least recently used first; latencies are charged by the
simulator, not here.

Cache state depends only on the order of accesses, never on timing, so the
simulator replays a whole trace's accesses at once
(:meth:`MemoryHierarchy.replay`) through the C LRU core
(:func:`repro.native.lru_replay`); ``access`` and the ``access_*`` methods
are the same model one access at a time, in Python, on the same state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import native
from repro.common.bits import is_power_of_two, log2_exact
from repro.common.errors import ConfigurationError
from repro.uarch.config import MachineConfig


@dataclass
class CacheStats:
    """Access/miss counters for one cache level."""

    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses per access (0.0 before any access)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class Cache:
    """A tag-only cache model: ``size_bytes`` with ``line_bytes`` lines and
    ``ways`` associativity (1 = direct mapped), true-LRU replacement."""

    def __init__(self, size_bytes: int, line_bytes: int, ways: int = 1) -> None:
        if not is_power_of_two(line_bytes):
            raise ConfigurationError(f"line size must be a power of two, got {line_bytes}")
        if ways < 1:
            raise ConfigurationError(f"associativity must be >= 1, got {ways}")
        lines = size_bytes // line_bytes
        if lines < ways or lines % ways:
            raise ConfigurationError(
                f"cache of {size_bytes}B / {line_bytes}B lines cannot be {ways}-way"
            )
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.sets = lines // ways
        if not is_power_of_two(self.sets):
            raise ConfigurationError(f"cache must have a power-of-two set count, got {self.sets}")
        self.line_shift = log2_exact(line_bytes)
        self.set_bits = log2_exact(self.sets)
        self.stats = CacheStats()
        #: Per set, the resident tags, least recently used first: the first
        #: ``fill[set]`` entries of ``tags[set]``.  The C core and the
        #: methods below update them in place.
        self.tags = np.zeros((self.sets, ways), dtype=np.int64)
        self.fill = np.zeros(self.sets, dtype=np.int64)

    def _locate(self, address: int) -> tuple[int, int, list[int]]:
        """(set, tag, resident tags least recent first) of ``address``."""
        line = address >> self.line_shift
        index = line & (self.sets - 1)
        return index, line >> self.set_bits, self.tags[index, : self.fill[index]].tolist()

    def access(self, address: int) -> bool:
        """Access (and fill on miss); returns True on hit."""
        index, tag, recency = self._locate(address)
        self.stats.accesses += 1
        hit = tag in recency
        if hit:
            recency.remove(tag)
        else:
            self.stats.misses += 1
            if len(recency) == self.ways:
                del recency[0]
        recency.append(tag)
        self.tags[index, : len(recency)] = recency
        self.fill[index] = len(recency)
        return hit

    def replay(self, addresses: np.ndarray) -> np.ndarray:
        """Access every address in order, as :meth:`access` one by one
        would; returns the hit flags."""
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        hits = native.lru_replay(addresses, self.line_shift, self.set_bits, self.tags, self.fill)
        self.stats.accesses += len(hits)
        self.stats.misses += len(hits) - int(np.count_nonzero(hits))
        return hits

    def probe(self, address: int) -> bool:
        """Check residency without updating state (used by tests)."""
        _, tag, recency = self._locate(address)
        return tag in recency

    def flush(self) -> None:
        """Invalidate every line."""
        self.fill[:] = 0


@dataclass
class MemoryHierarchy:
    """L1 I/D backed by a shared L2 and a flat memory latency.

    ``access_*`` methods return the *additional* stall cycles beyond an L1
    hit, so an L1 hit costs 0 here (its latency is part of the pipeline).
    """

    l1i: Cache
    l1d: Cache
    l2: Cache
    l2_hit_cycles: int = 12
    memory_cycles: int = 200
    stats_l2_from_i: CacheStats = field(default_factory=CacheStats)

    def access_instruction(self, address: int) -> int:
        """Stall cycles for an instruction fetch beyond an L1I hit."""
        if self.l1i.access(address):
            return 0
        if self.l2.access(address):
            return self.l2_hit_cycles
        return self.memory_cycles

    def access_data(self, address: int) -> int:
        """Stall cycles for a data access beyond an L1D hit."""
        if self.l1d.access(address):
            return 0
        if self.l2.access(address):
            return self.l2_hit_cycles
        return self.memory_cycles

    def replay(self, addresses: np.ndarray, data: np.ndarray) -> np.ndarray:
        """Stall cycles of every access of a stream, in order — what
        ``access_data`` (where ``data`` is set) or ``access_instruction``
        would return one by one.

        The L1s see disjoint streams, so each replays its own; the shared
        L2 then replays their misses in stream order.
        """
        hits = np.empty(len(addresses), dtype=bool)
        fetches = ~data
        hits[fetches] = self.l1i.replay(addresses[fetches])
        hits[data] = self.l1d.replay(addresses[data])
        misses = np.flatnonzero(~hits)
        l2_hits = self.l2.replay(addresses[misses])
        stalls = np.zeros(len(addresses), dtype=np.int64)
        stalls[misses] = np.where(l2_hits, self.l2_hit_cycles, self.memory_cycles)
        return stalls


def machine_hierarchy(config: MachineConfig) -> MemoryHierarchy:
    """The hierarchy ``config`` describes: direct-mapped L1s of
    ``l1_size``/``l1_line`` and an ``l2_ways``-way L2 of
    ``l2_size``/``l2_line``."""
    return MemoryHierarchy(
        l1i=Cache(config.l1_size, config.l1_line, ways=1),
        l1d=Cache(config.l1_size, config.l1_line, ways=1),
        l2=Cache(config.l2_size, config.l2_line, ways=config.l2_ways),
        l2_hit_cycles=config.l2_hit_cycles,
        memory_cycles=config.memory_cycles,
    )


def paper_hierarchy(l2_hit_cycles: int = 12, memory_cycles: int = 200) -> MemoryHierarchy:
    """The Table 1 configuration."""
    return machine_hierarchy(
        MachineConfig(l2_hit_cycles=l2_hit_cycles, memory_cycles=memory_cycles)
    )
