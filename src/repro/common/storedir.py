"""The directory side of the trace and result stores.

Both stores are a flat directory of immutable, atomically written entries
with an entry cap (oldest mtime evicted first).  :class:`StoreDirectory`
holds what they share: listing entries, and keeping the cap (and sweeping
the staging files of writers that died) without scanning the directory on
every write.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.common.atomic import remove_abandoned_staging_files


class StoreDirectory:
    """A directory of store entries bounded to :attr:`capacity` entries.

    A store's ``save`` calls :meth:`_after_write` after its atomic write.
    The entry count is taken by one scan, on an instance's first write,
    and then bumped per write; the directory is rescanned (the oldest
    entries evicted) only when the count passes capacity.  A save
    therefore costs the same in an empty store as in one of thousands of
    entries.  Entries other writers add are seen at the next rescan, so a
    store shared by several writers can exceed its capacity by what the
    others wrote since, until a writer's own count passes capacity and
    trims it.  Each scan also removes the staging files of writers shown
    to be gone (:func:`repro.common.atomic.abandoned_staging_files`), so
    a killed writer's dropping lasts until the next process writes.
    """

    #: Glob patterns of entry files; subclasses set them.
    patterns: tuple[str, ...] = ()

    def __init__(self, root: str | os.PathLike, capacity: int | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._capacity = capacity
        self._entry_count: int | None = None

    @property
    def capacity(self) -> int:
        """Entry cap: constructor override or the environment default."""
        return self._capacity if self._capacity is not None else self._default_capacity()

    def _default_capacity(self) -> int:
        raise NotImplementedError

    def _evicted(self) -> None:
        """Record one eviction in the store's statistics."""

    def entries(self) -> list[Path]:
        """Every entry file, oldest first (mtime, then name for stability)."""
        paths = []
        for pattern in self.patterns:
            for path in self.root.glob(pattern):
                try:
                    paths.append((path.stat().st_mtime_ns, path.name, path))
                except OSError:
                    continue  # concurrently evicted
        return [path for _, _, path in sorted(paths)]

    def _after_write(self) -> None:
        if self._entry_count is not None and self._entry_count < self.capacity:
            self._entry_count += 1
        else:
            self._rescan()

    def _rescan(self) -> None:
        """Recount the entries, evict the oldest past capacity, and sweep
        abandoned staging files."""
        remove_abandoned_staging_files(self.root)
        entries = self.entries()
        excess = max(len(entries) - self.capacity, 0)
        for path in entries[:excess]:
            try:
                path.unlink()
            except OSError:
                continue
            self._evicted()
        self._entry_count = len(entries) - excess
