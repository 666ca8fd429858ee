"""Array kernels underlying the batch prediction engine.

These building blocks turn a branch-at-a-time predictor into chunked array
code:

* :func:`packed_history` — the global-history register value *before* every
  branch of a chunk, computed with ``length`` shifted-OR passes instead of a
  per-branch shift (the history a trace-driven predictor sees is a pure
  function of the preceding outcomes, which are all known up front);
* :func:`local_histories` — the same for per-row local histories, grouped
  by history-table row;
* :func:`fold_bits`, :func:`bit_reverse_bits`, :func:`rotate_left_bits` —
  the vectorized index hashes (XOR-fold, and the skewing functions of the
  gskew family);
* :func:`stable_order` — the stable grouping every kernel uses, by 16-bit
  radix passes;
* :class:`CounterScan` — an exact, loop-free replay of saturating-counter
  updates grouped by table cell.

The scan rests on a closure property: a saturating ±1 update is the map
``s -> clip(s + k, lo, hi)`` (increment: ``k=+1, hi=max``; decrement:
``k=-1, lo=0``), and the composition of two such maps is again one:

    (newer ∘ older)(s) = clip(s + k_o + k_n,
                              clip(lo_o + k_n, lo_n, hi_n),
                              clip(hi_o + k_n, lo_n, hi_n))

so the running counter state along each cell's update subsequence is a
segmented prefix-composition of ``(k, lo, hi)`` triples — computed with a
Hillis-Steele doubling scan, no Python-level per-branch loop.  The unused
bound of each primitive map is a large sentinel, never ±inf, so everything
stays in exact int32 arithmetic.

**The scan settles.**  A map has *settled* when it is constant on the
counter domain ``[0, max_value]``, i.e. ``f(0) == f(max_value)`` (clamps
are monotone).  Every composed map sends the domain into itself, so a
settled map composed after any older map takes the same value on the
domain: an event whose map has settled already holds its exact state for
any starting value, and an event that composes with a settled predecessor
settles too.  Such events leave the doubling passes, as do events whose
map already covers their whole prefix.  A 2-bit counter's map settles
after three updates in the same direction, so few events outlive the first
passes (the accuracy grid's scans compose about twice per event instead of
five times).  Passes run on whole slices while at least half the events
are active, then on gathers of the active events alone.

**Grouping is radix sorting.**  numpy's stable argsort of ``uint16`` keys
is a radix sort, so :func:`stable_order` groups keys below 2**16 in one
linear pass and keys below 2**32 in two (low half, then high half); only
wider or negative keys take a comparison sort.
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import mask
from repro.common.errors import ConfigurationError

#: Sentinel bounds for the unused side of a primitive clamp map.  Large
#: enough that no composition of |k| <= MAX_SCAN_EVENTS shifts reaches
#: them, small enough that int32 arithmetic can never overflow.
_NEG = -(1 << 28)
_POS = 1 << 28

#: Upper bound on events per scan, so sentinel arithmetic stays exact in
#: int32 (the scan's working dtype).
MAX_SCAN_EVENTS = 1 << 24

#: Cell ids and event times are packed into one sortable int64 key:
#: ``cell * _KEY_STRIDE + time``.  Event times are global branch positions,
#: so traces are limited to ``_KEY_STRIDE`` branches — far beyond anything
#: a pure-Python workload generator produces.
_KEY_STRIDE = 1 << 38


def packed_history(
    takens: np.ndarray, length: int, prefix: np.ndarray | None = None
) -> np.ndarray:
    """History-register value *before* each branch of ``takens``.

    Bit ``k-1`` of ``out[t]`` is the outcome of branch ``t - k`` — exactly
    :class:`repro.common.history.HistoryRegister` after pushing outcomes
    ``0..t-1``.  ``prefix`` supplies the outcomes that precede
    ``takens[0]`` (oldest first) when evaluating a later chunk; branches
    before the start of time count as not-taken, matching the register's
    all-zero reset state.
    """
    takens = np.asarray(takens)
    n = len(takens)
    out = np.zeros(n, dtype=np.int64)
    if length == 0 or n == 0:
        return out
    if prefix is None or len(prefix) == 0:
        ext = takens.astype(np.int64)
        p = 0
    else:
        prefix = np.asarray(prefix, dtype=np.int64)[-length:]
        ext = np.concatenate([prefix, takens.astype(np.int64)])
        p = len(prefix)
    for k in range(1, length + 1):
        first = max(0, k - p)
        if first >= n:
            break
        out[first:] |= ext[p + first - k : p + n - k] << (k - 1)
    return out


def pack_outcomes(takens: np.ndarray, length: int) -> int:
    """Final history-register value after pushing every outcome of
    ``takens`` (most recent outcome in bit 0)."""
    value = 0
    for taken in np.asarray(takens)[-length:] if length else ():
        value = ((value << 1) | int(taken)) & mask(length)
    return value


def unpack_history(value: int, length: int) -> np.ndarray:
    """The outcomes a ``length``-bit history register holding ``value``
    stands for, oldest first — the inverse of :func:`pack_outcomes`, used
    as the prefix of a stream evaluated from a non-empty history."""
    return np.array([(value >> age) & 1 for age in reversed(range(length))], dtype=bool)


def stable_order(keys: np.ndarray) -> np.ndarray:
    """The stable argsort of integer ``keys``, by 16-bit radix passes.

    Keys below 2**16 take one pass of numpy's stable ``uint16`` argsort (a
    radix sort), keys below 2**32 two (low half, then high half).  Any
    other keys, negative ones included, take ``np.argsort(kind="stable")``.
    """
    keys = np.asarray(keys)
    if len(keys) and keys.min() >= 0:
        top = keys.max()
        if top < 1 << 16:
            return np.argsort(keys.astype(np.uint16), kind="stable")
        if top < 1 << 32:
            order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
            high = (keys[order] >> 16).astype(np.uint16)
            return order[np.argsort(high, kind="stable")]
    return np.argsort(keys, kind="stable")


def segment_positions(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group a stream by key, keeping stream order within a key.

    Returns ``(order, position)``: ``order`` is the stable argsort of
    ``keys`` (:func:`stable_order`), and ``position[j]`` counts the earlier
    events of the same key as the ``j``-th event of the grouped order (0
    for a key's first event).
    """
    order = stable_order(keys)
    n = len(order)
    index = np.arange(n, dtype=np.int64)
    head = np.zeros(n, dtype=np.int64)
    if n:
        grouped = keys[order]
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        np.not_equal(grouped[1:], grouped[:-1], out=starts[1:])
        head = np.maximum.accumulate(np.where(starts, index, 0))
    return order, index - head


def local_histories(
    rows: np.ndarray, takens: np.ndarray, table: np.ndarray, length: int
) -> np.ndarray:
    """Local-history value *before* each branch of a chunk.

    Branch ``j`` reads and then shifts its outcome into row ``rows[j]`` of a
    :class:`repro.common.history.LocalHistoryTable` whose ``length``-bit
    row values are ``table``.  Per row this is :func:`packed_history` over
    the row's own outcomes with the row's starting value as the prefix.
    ``table`` is advanced in place to the values after the chunk.
    """
    n = len(rows)
    out = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out
    order, position = segment_positions(rows)
    grouped_rows = rows[order]
    outcomes = takens[order].astype(np.int64)
    width = mask(length)
    # The starting value shifts left once per earlier outcome of the row.
    kept = position < length
    hist = np.where(kept, table[grouped_rows] << np.where(kept, position, 0), 0) & width
    for k in range(1, min(length, int(position.max())) + 1):
        same_row = position[k:] >= k
        hist[k:] |= np.where(same_row, outcomes[:-k] << (k - 1), 0)
    last = np.append(position[1:] == 0, True)  # each row's final branch
    table[grouped_rows[last]] = ((hist[last] << 1) | outcomes[last]) & width
    out[order] = hist
    return out


def fold_bits(values: np.ndarray, in_width: int, out_width: int) -> np.ndarray:
    """Vectorized :func:`repro.common.bits.fold` over an int64 array."""
    v = np.asarray(values, dtype=np.int64) & mask(in_width)
    out = np.zeros_like(v)
    if out_width <= 0:
        if out_width == 0:
            return out
        raise ConfigurationError(f"fold out_width must be >= 0, got {out_width}")
    m = mask(out_width)
    while np.any(v):
        out ^= v & m
        v >>= out_width
    return out


def bit_reverse_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Vectorized :func:`repro.common.bits.bit_reverse`."""
    v = np.asarray(values, dtype=np.int64)
    out = np.zeros_like(v)
    for bit in range(width):
        out |= ((v >> bit) & 1) << (width - 1 - bit)
    return out


def rotate_left_bits(values: np.ndarray, amount: int, width: int) -> np.ndarray:
    """Vectorized :func:`repro.common.bits.rotate_left`."""
    if width <= 0:
        raise ConfigurationError(f"rotate width must be positive, got {width}")
    amount %= width
    v = np.asarray(values, dtype=np.int64) & mask(width)
    return ((v << amount) | (v >> (width - amount))) & mask(width)


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` of non-negative int64 values."""
    v = np.array(values, dtype=np.int64)
    out = np.zeros_like(v)
    while v.any():
        out += v != 0
        v >>= 1
    return out


def hash_pcs(pcs: np.ndarray, width: int) -> np.ndarray:
    """Vectorized :func:`repro.common.bits.hash_pc`."""
    return fold_bits(np.asarray(pcs, dtype=np.int64) >> 2, 32, width)


def _compose(older: tuple, newer: tuple) -> tuple:
    """``newer ∘ older`` for arrays of clamp maps ``(shift, lo, hi)``, as
    new arrays (nothing is written)."""
    shift, lo, hi = newer
    return (
        older[0] + shift,
        np.minimum(np.maximum(older[1] + shift, lo), hi),
        np.minimum(np.maximum(older[2] + shift, lo), hi),
    )


def _settled(maps: tuple, max_value: int) -> np.ndarray:
    """Which clamp maps are constant on the counter domain
    ``[0, max_value]``: ``f(0) == f(max_value)``, as clamps are monotone."""
    shift, lo, hi = maps
    low = np.minimum(np.maximum(shift, lo), hi)
    return low == np.minimum(np.maximum(shift + max_value, lo), hi)


def _scan_prefixes(
    boundary: np.ndarray, shift: np.ndarray, lo: np.ndarray, hi: np.ndarray, max_value: int
) -> None:
    """Turn each event's map into its inclusive prefix composition over
    its cell's run (``boundary`` marks run heads), in place and exact on
    the counter domain.

    Doubling pass ``d`` composes every *active* event with the map ``d``
    events earlier in its run.  An event leaves the active set once its
    map covers its whole prefix (position ``< 2d``) or has settled.  While
    at least half the events are active, a pass runs on whole slices under
    the active mask; after that, on gathers of the active events alone.
    """
    maps = (shift, lo, hi)
    n = len(shift)
    index = np.arange(n, dtype=np.int32)
    position = index - np.maximum.accumulate(np.where(boundary, index, 0))
    active = ~boundary & ~_settled(maps, max_value)
    offset = 1
    while 2 * np.count_nonzero(active) >= n:
        composed = _compose(
            tuple(m[:-offset] for m in maps), tuple(m[offset:] for m in maps)
        )
        take = active[offset:]
        for target, value in zip(maps, composed):
            np.copyto(target[offset:], value, where=take)
        active[offset:] &= ~_settled(composed, max_value)
        offset *= 2
        active &= position >= offset
    events = np.flatnonzero(active)
    while len(events):
        sources = events - offset
        composed = _compose(
            tuple(m[sources] for m in maps), tuple(m[events] for m in maps)
        )
        for target, value in zip(maps, composed):
            target[events] = value
        offset *= 2
        events = events[(position[events] >= offset) & ~_settled(composed, max_value)]


class CounterScan:
    """Replay saturating-counter writes against a table, loop-free.

    ``cells``/``times``/``takens`` describe the write stream in issue
    order: branch at global position ``times[j]`` trains counter
    ``cells[j]`` toward ``takens[j]``.  The constructor runs the segmented
    prefix-composition scan; :meth:`sample` then reads the counter state
    any branch observed and :meth:`commit` writes final states back into
    the table array.
    """

    def __init__(
        self,
        cells: np.ndarray,
        times: np.ndarray | None,
        takens: np.ndarray,
        table: np.ndarray,
        max_value: int,
    ) -> None:
        cells = np.asarray(cells)
        takens = np.asarray(takens, dtype=bool)
        if len(cells) > MAX_SCAN_EVENTS:
            raise ConfigurationError(
                f"scan of {len(cells)} events exceeds MAX_SCAN_EVENTS; "
                f"use a smaller chunk"
            )
        if times is not None:
            times = np.asarray(times, dtype=np.int64)
            if len(times) and int(times.max()) >= _KEY_STRIDE:
                raise ConfigurationError("event time exceeds the key-packing stride")
        # Group by cell, preserving issue order within a cell.
        self._order = stable_order(cells)
        self._cells = cells[self._order].astype(np.int32)
        self._times = times[self._order] if times is not None else None
        self._table = table
        taken_sorted = takens[self._order]

        # Primitive maps: increment = clip(s+1, -inf, max), decrement =
        # clip(s-1, 0, +inf), with int32 sentinels for the unused bounds.
        shift = np.where(taken_sorted, np.int32(1), np.int32(-1))
        lo = np.where(taken_sorted, np.int32(_NEG), np.int32(0))
        hi = np.where(taken_sorted, np.int32(max_value), np.int32(_POS))

        n = len(shift)
        if n:
            boundary = np.empty(n, dtype=bool)
            boundary[0] = True
            np.not_equal(self._cells[1:], self._cells[:-1], out=boundary[1:])
            _scan_prefixes(boundary, shift, lo, hi, max_value)
            init = table[self._cells]
            # Inclusive prefix map applied to the cell's starting value =
            # counter state *after* each write; *before* is its shift-by-one
            # (the cell's starting value at each segment head).
            self._after = np.minimum(np.maximum(init + shift, lo), hi)
            before = np.empty(n, dtype=self._after.dtype)
            before[0] = init[0]
            before[1:] = self._after[:-1]
            before[boundary] = init[boundary]
            self._before = before
        else:
            self._after = np.zeros(0, dtype=np.int32)
            self._before = np.zeros(0, dtype=np.int32)

    def states_before_writes(self) -> np.ndarray:
        """Counter state each write observed, in original issue order.

        This is the predicted counter value when every branch reads and
        writes the same cell with no update delay — the common fast path
        that needs no searchsorted sampling.
        """
        out = np.empty(len(self._before), dtype=np.int64)
        out[self._order] = self._before
        return out

    def sample(self, cells: np.ndarray, times: np.ndarray, delay: int = 0) -> np.ndarray:
        """Counter state each read observes.

        A read at global position ``t`` on cell ``c`` sees every write to
        ``c`` issued at positions ``<= t - delay - 1`` — the scalar
        semantics of an (optionally delayed) predict-then-update stream.
        """
        cells = np.asarray(cells, dtype=np.int64)
        times = np.asarray(times, dtype=np.int64)
        if len(self._cells) == 0:
            return self._table[cells].astype(np.int64)
        if self._times is None:
            raise ConfigurationError("sampling requires event times at construction")
        keys = self._cells.astype(np.int64) * _KEY_STRIDE + self._times
        targets = cells * _KEY_STRIDE + (times - delay)
        pos = np.searchsorted(keys, targets, side="left")
        prev = np.clip(pos - 1, 0, len(keys) - 1)
        has_write = (pos > 0) & (self._cells[prev] == cells)
        return np.where(has_write, self._after[prev], self._table[cells].astype(np.int64))

    def commit(self, through_time: int | None = None) -> None:
        """Write back the state of every cell after its last write issued
        at position ``<= through_time`` (later writes stay pending).
        ``None`` commits every write."""
        n = len(self._cells)
        if n == 0:
            return
        is_last = np.empty(n, dtype=bool)
        if through_time is None:
            np.not_equal(self._cells[1:], self._cells[:-1], out=is_last[:-1])
            is_last[-1] = True
        else:
            if self._times is None:
                raise ConfigurationError(
                    "partial commit requires event times at construction"
                )
            committed = self._times <= through_time
            is_last[:-1] = (self._cells[1:] != self._cells[:-1]) | ~committed[1:]
            is_last[-1] = True
            is_last &= committed
        self._table[self._cells[is_last]] = self._after[is_last]
