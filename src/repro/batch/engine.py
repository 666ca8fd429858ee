"""The batch evaluation engine: whole-trace predictor runs in array code.

:func:`evaluate_stream` replays a ``(pc, taken)`` branch stream through a
predictor using chunked NumPy kernels and returns the full per-branch
prediction stream.  The contract is **bit-exactness** with the scalar
``predict``/``update`` protocol: identical predictions for every branch and
identical final predictor state (everything ``predictor.state()`` exposes:
tables, history registers, local histories, weights, loop entries, stats,
pending delayed updates).  ``tests/test_differential_batch.py`` enforces the
contract with :mod:`repro.batch.diff`.

How each family is batched
--------------------------

Every registered family has a kernel.  They share one crucial property of
trace-driven evaluation: everything that depends only on PCs and true
outcomes — the global history before each branch and every fold/skew
index hash — is known for the whole trace up front and is computed
vectorized.  What remains is the predictor's own state, which every
branch reads after earlier branches wrote it; each table, row or weight
array steps branch by branch in a sequential C core (:mod:`repro.native`)
on the kernel's working copy, one call per chunk per table:

1. **A counter table that every branch reads and then trains** is
   ``counter_replay``: bimodal, gshare, gshare.fast (whose non-speculative
   update delay the core applies as ``DelayedUpdateQueue`` does, starting
   from the writes still pending) and the local predictor's PHT.
   **tournament** is its two PHTs on that core, local-history rows on
   ``local_history_replay``, and ``chooser_replay`` for the chooser that
   every branch reads and that trains only where the votes disagree.
2. **An update rule that couples several tables** is a C replay too.
   Bi-Mode and bimode.fast (the choice table steers which direction table
   trains, and its partial update depends on that table's prediction),
   e-gskew and 2Bc-gskew (majority vote with partial update, plus the
   2Bc-gskew meta) run their counter core over precomputed indices.  The
   **loop** predictor's entry array is stepped the same way.
3. **A composite reuses its components' kernels.**  **multicomponent**
   runs each component's own kernel for its vote stream and final state,
   then replays only the Evers selection counters in C, as one lookup per
   branch in a precomputed transition table over a row's packed counters.
4. **Weights train in one sequential C pass.**  **perceptron** inputs —
   the global and local history bits as ±1, signed by each outcome — are
   one array; the pass then computes each branch's margin as an int32 dot
   product with its weight row and trains the row when the margin is at
   most θ.

A predictor whose exact type is not a registered family, or a
multicomponent whose components or selection table no kernel models
exactly, resolves to the scalar engine under ``engine="auto"``.

The cycle simulator uses the same kernels: every fetch policy's
components train on every conditional branch in trace order whatever the
timing, so an IPC run takes each component's whole prediction stream from
:func:`evaluate_stream` (via :func:`repro.predictors.engines.
direction_stream`, which resolves the engine) before its timing loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import obs
from repro import native
from repro.batch.kernels import (
    bit_lengths,
    bit_reverse_bits,
    fold_bits,
    hash_pcs,
    pack_outcomes,
    packed_history,
    rotate_left_bits,
    unpack_history,
)
from repro.common.bits import mask
from repro.common.counters import CounterTable
from repro.common.errors import ConfigurationError, ProtocolError
from repro.core.gshare_fast import PC_SELECT_BITS
from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.local import LocalPredictor
from repro.predictors.loop import LoopPredictor
from repro.predictors.perceptron import WEIGHT_MAX, WEIGHT_MIN
from repro.workloads.trace import ColumnarTrace

#: Default branches per chunk: large enough to amortize kernel launches,
#: small enough that every intermediate array stays cache-friendly.
DEFAULT_CHUNK = 1 << 16


def _record_chunk(kernel_name: str, branches: int, seconds: float, nested: bool) -> None:
    """Per-chunk kernel accounting (called only when profiling).  A
    composite's component kernels are timed under their own names but not
    counted again as chunks or branches."""
    registry = obs.registry()
    registry.timer(f"batch.chunk.{kernel_name}").observe(seconds)
    if not nested:
        registry.counter("batch.chunks").inc()
        registry.counter("batch.chunk_branches").inc(branches)
        registry.histogram("batch.chunk_seconds").observe(seconds)


@dataclass(frozen=True)
class BatchResult:
    """Full per-branch outcome of one batch evaluation."""

    predictor: str
    predictions: np.ndarray  #: bool, one prediction per conditional branch
    outcomes: np.ndarray  #: bool, the true directions

    @property
    def branches(self) -> int:
        """Number of branches evaluated."""
        return len(self.predictions)

    @property
    def mispredictions(self) -> int:
        """Total wrong predictions over the stream."""
        return int(np.count_nonzero(self.predictions != self.outcomes))

    def mispredictions_after(self, warmup_branches: int) -> int:
        """Wrong predictions, ignoring the first ``warmup_branches``."""
        wrong = self.predictions[warmup_branches:] != self.outcomes[warmup_branches:]
        return int(np.count_nonzero(wrong))


# -- shared machinery ----------------------------------------------------------


class _GlobalHistory:
    """A global-history register driven by a whole stream: the packed value
    before each branch of any chunk, and the value after the stream.  The
    register's starting value stands in for the outcomes before the
    stream."""

    def __init__(self, takens: np.ndarray, length: int, value: int) -> None:
        self.length = length
        #: Every outcome the register sees, oldest first; the stream
        #: starts at offset ``length``.
        self.outcomes = np.concatenate([unpack_history(value, length), takens])

    def before(self, start: int, stop: int) -> np.ndarray:
        length = self.length
        return packed_history(
            self.outcomes[length + start : length + stop],
            length,
            self.outcomes[start : start + length],
        )

    def final(self) -> int:
        return pack_outcomes(self.outcomes, self.length)


def _train_votes(
    cells: np.ndarray, takens: np.ndarray, table: np.ndarray, counters: CounterTable
) -> np.ndarray:
    """Votes of a counter table that every branch reads and then trains at
    ``cells`` with no delay; advances ``table`` past the chunk."""
    votes, _ = native.counter_replay(cells, takens, table, counters.threshold, counters.max_value)
    return votes


class _Kernel:
    """One predictor's batch evaluation.  :meth:`run` computes the
    prediction stream and the final state without touching the predictor;
    :meth:`writeback` then mirrors that state onto it."""

    #: Set on a composite's component kernels (see :func:`_record_chunk`).
    nested = False

    def __init__(self, predictor: BranchPredictor) -> None:
        self.predictor = predictor

    @classmethod
    def supports(cls, predictor: BranchPredictor) -> bool:
        """Whether this kernel is exact for ``predictor``'s configuration."""
        return True

    def chunks(self, n: int, chunk: int):
        """Yield ``(start, stop)`` per chunk of an ``n``-branch stream,
        timing each chunk's processing when profiling."""
        profiling = obs.enabled()
        for start in range(0, n, chunk):
            started = time.perf_counter() if profiling else 0.0
            stop = min(start + chunk, n)
            yield start, stop
            if profiling:
                elapsed = time.perf_counter() - started
                _record_chunk(self.predictor.name, stop - start, elapsed, self.nested)

    def snapshot_tables(self, *counters: CounterTable) -> list[np.ndarray]:
        """Working copies of ``counters``, restored by :meth:`restore_tables`."""
        self.counters = counters
        self.tables = [table.snapshot() for table in counters]
        return self.tables

    def restore_tables(self) -> None:
        for counters, table in zip(self.counters, self.tables):
            counters.restore(table)

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        raise NotImplementedError

    def writeback(self) -> None:
        raise NotImplementedError


def _commit(
    predictor: BranchPredictor, kernel: _Kernel, predictions: np.ndarray, takens: np.ndarray
) -> None:
    """Leave ``predictor`` exactly as the scalar run would: state and stats."""
    kernel.writeback()
    predictor.stats.predictions += len(predictions)
    predictor.stats.mispredictions += int(np.count_nonzero(predictions != takens))


# -- single-PHT families -------------------------------------------------------


class _SingleTableKernel(_Kernel):
    """Chunk loop shared by every one-read-one-write-per-branch family."""

    #: Branches of delay between a branch's update issue and visibility.
    delay = 0

    def __init__(self, predictor: BranchPredictor) -> None:
        super().__init__(predictor)
        self.table = predictor.table.snapshot()
        register = getattr(predictor, "history", None)
        self.history_length = register.length if register is not None else 0
        self.initial_history = register.value if register is not None else 0

    def indices(self, pcs: np.ndarray, history: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        counters = self.predictor.table
        predictions = np.empty(len(pcs), dtype=bool)
        history = _GlobalHistory(takens, self.history_length, self.initial_history)
        # The delayed writes still pending from before the stream come first.
        queued = self.predictor._deferred_updates.snapshot() if self.delay else []
        pending = len(queued)
        queue = (np.zeros(self.delay, dtype=np.int64), np.zeros(self.delay, dtype=bool))
        for slot, (cell, taken) in enumerate(queued):
            queue[0][slot], queue[1][slot] = cell, taken
        for start, stop in self.chunks(len(pcs), chunk):
            cells = self.indices(pcs[start:stop], history.before(start, stop))
            predictions[start:stop], pending = native.counter_replay(
                cells, takens[start:stop], self.table, counters.threshold,
                counters.max_value, queue, pending,
            )
        self._deferred = list(zip(queue[0][:pending].tolist(), queue[1][:pending].tolist()))
        self.final_history = history.final()
        return predictions

    def writeback(self) -> None:
        self.predictor.table.restore(self.table)
        if self.history_length:
            self.predictor.history.restore(self.final_history)


class _BimodalKernel(_SingleTableKernel):
    def indices(self, pcs: np.ndarray, history: np.ndarray) -> np.ndarray:
        return (pcs >> 2) & (self.predictor.table.size - 1)


class _GshareKernel(_SingleTableKernel):
    def indices(self, pcs: np.ndarray, history: np.ndarray) -> np.ndarray:
        bits = self.predictor.index_bits
        return (hash_pcs(pcs, bits) ^ history) & mask(bits)


def _gshare_fast_indices(
    pcs: np.ndarray, history: np.ndarray, index_bits: int, buffer_bits: int, staleness: int
) -> np.ndarray:
    """gshare.fast's pipelinable index: a line address from stale history,
    a select from the folded low PC bits and the newest history."""
    high = (history >> staleness) & mask(index_bits - buffer_bits)
    pc_bits = fold_bits((pcs >> 2) & mask(PC_SELECT_BITS), PC_SELECT_BITS, buffer_bits)
    low = (pc_bits ^ history) & mask(buffer_bits)
    return (high << buffer_bits) | low


class _GshareFastKernel(_SingleTableKernel):
    def __init__(self, predictor: BranchPredictor) -> None:
        super().__init__(predictor)
        self.delay = predictor.update_delay

    def indices(self, pcs: np.ndarray, history: np.ndarray) -> np.ndarray:
        p = self.predictor
        return _gshare_fast_indices(pcs, history, p.index_bits, p.buffer_bits, p.staleness)

    def writeback(self) -> None:
        super().writeback()
        # Reconstruct the delayed-update FIFO the scalar run would hold.
        self.predictor._deferred_updates.restore(self._deferred)


class _LocalKernel(_Kernel):
    """The two-level local predictor (a multicomponent component): the
    local-history rows, then one PHT over indices folded from them."""

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        p: LocalPredictor = self.predictor
        (table,) = self.snapshot_tables(p.pht)
        self.rows = p.histories.snapshot()
        length = p.histories.length
        predictions = np.empty(len(pcs), dtype=bool)
        for start, stop in self.chunks(len(pcs), chunk):
            ctakens = takens[start:stop]
            rows = (pcs[start:stop] >> 2) & (p.histories.entries - 1)
            local = native.local_history_replay(rows, ctakens, self.rows, length)
            cells = fold_bits(local, length, p.pht_index_bits)
            predictions[start:stop] = _train_votes(cells, ctakens, table, p.pht)
        return predictions

    def writeback(self) -> None:
        self.restore_tables()
        self.predictor.histories.restore_all(self.rows)


# -- Bi-Mode and bimode.fast -----------------------------------------------------


class _BiModeKernel(_Kernel):
    """Vectorized precompute + exact sequential counter core for Bi-Mode."""

    def __init__(self, predictor: BranchPredictor) -> None:
        super().__init__(predictor)
        self.history_length = predictor.history.length
        self.initial_history = predictor.history.value

    def indices(self, pcs: np.ndarray, history: np.ndarray) -> np.ndarray:
        bits = self.predictor.direction_index_bits
        return (hash_pcs(pcs, bits) ^ history) & mask(bits)

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        p = self.predictor
        tables = self.snapshot_tables(p.taken_table, p.not_taken_table, p.choice_table)
        history = _GlobalHistory(takens, self.history_length, self.initial_history)
        predictions = np.empty(len(pcs), dtype=bool)
        for start, stop in self.chunks(len(pcs), chunk):
            cpcs = pcs[start:stop]
            predictions[start:stop] = native.bimode_replay(
                self.indices(cpcs, history.before(start, stop)),
                (cpcs >> 2) & (p.choice_table.size - 1),
                takens[start:stop],
                *tables,
                p.taken_table.threshold,
                p.taken_table.max_value,
                p.choice_table.threshold,
                p.choice_table.max_value,
            )
        self.final_history = history.final()
        return predictions

    def writeback(self) -> None:
        self.restore_tables()
        self.predictor.history.restore(self.final_history)


class _BiModeFastKernel(_BiModeKernel):
    """bimode.fast: the Bi-Mode core over gshare.fast direction indices,
    with its speculative history kept as a plain int."""

    def __init__(self, predictor: BranchPredictor) -> None:
        _Kernel.__init__(self, predictor)
        self.history_length = predictor._history_bits
        self.initial_history = predictor._history

    def indices(self, pcs: np.ndarray, history: np.ndarray) -> np.ndarray:
        p = self.predictor
        return _gshare_fast_indices(pcs, history, p.index_bits, p.buffer_bits, p.staleness)

    def writeback(self) -> None:
        self.restore_tables()
        self.predictor._history = self.final_history


# -- e-gskew and 2Bc-gskew -------------------------------------------------------


def _skew_indices(
    pcs: np.ndarray, history: np.ndarray, history_length: int, index_bits: int, bank: int
) -> np.ndarray:
    """Vectorized :func:`repro.predictors.gskew.skew_index`."""
    pc_bits = hash_pcs(pcs, index_bits)
    hist_bits = fold_bits(history, history_length, index_bits)
    if bank == 0:
        mixed = pc_bits ^ hist_bits
    elif bank == 1:
        mixed = rotate_left_bits(pc_bits, index_bits // 3 + 1, index_bits) ^ bit_reverse_bits(
            hist_bits, index_bits
        )
    else:
        mixed = bit_reverse_bits(pc_bits, index_bits) ^ rotate_left_bits(
            hist_bits, 2 * index_bits // 3 + 1, index_bits
        )
    return mixed & mask(index_bits)


class _GskewKernel(_Kernel):
    """Shared chunk loop of the gskew family: vectorized bank indices, then
    the partial-update majority vote replayed by a C core (``replay``).
    Every bank of these families is a 2-bit counter table."""

    def indices(self, pcs: np.ndarray, history: np.ndarray) -> list[np.ndarray]:
        raise NotImplementedError

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        p = self.predictor
        tables = self.snapshot_tables(*p.tables().values())
        history = _GlobalHistory(takens, p.history.length, p.history.value)
        predictions = np.empty(len(pcs), dtype=bool)
        for start, stop in self.chunks(len(pcs), chunk):
            predictions[start:stop] = self.replay(
                self.indices(pcs[start:stop], history.before(start, stop)),
                takens[start:stop],
                tables,
                p.bim.threshold,
                p.bim.max_value,
            )
        self.final_history = history.final()
        return predictions

    def writeback(self) -> None:
        self.restore_tables()
        self.predictor.history.restore(self.final_history)


class _EGskewKernel(_GskewKernel):
    def indices(self, pcs: np.ndarray, history: np.ndarray) -> list[np.ndarray]:
        p = self.predictor
        length, bits = p.history.length, p.index_bits
        return [
            (pcs >> 2) & (p.bim.size - 1),
            _skew_indices(pcs, history, length, bits, 1),
            _skew_indices(pcs, history, length, bits, 2),
        ]

    replay = staticmethod(native.egskew_replay)


class _TwoBcGskewKernel(_GskewKernel):
    def indices(self, pcs: np.ndarray, history: np.ndarray) -> list[np.ndarray]:
        p = self.predictor
        bits = p.index_bits
        short = history & mask(p.short_history)
        return [
            (pcs >> 2) & (p.bim.size - 1),
            _skew_indices(pcs, short, p.short_history, bits, 1),
            _skew_indices(pcs, history, p.long_history, bits, 2),
            _skew_indices(pcs, short, p.short_history, bits, 0),
        ]

    replay = staticmethod(native.twobc_gskew_replay)


# -- tournament ------------------------------------------------------------------


class _TournamentKernel(_Kernel):
    """Four cores per chunk: the local-history rows, the global and local
    PHT votes, then the chooser that picks between them."""

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        p = self.predictor
        global_table, local_table, chooser_table = self.snapshot_tables(
            p.global_pht, p.local_pht, p.chooser
        )
        self.rows = p.local_histories.snapshot()
        length = p.history.length
        local_length = p.local_histories.length
        history = _GlobalHistory(takens, length, p.history.value)
        predictions = np.empty(len(pcs), dtype=bool)
        for start, stop in self.chunks(len(pcs), chunk):
            ctakens = takens[start:stop]
            ghist = history.before(start, stop)
            rows = (pcs[start:stop] >> 2) & (p.local_histories.entries - 1)
            local = native.local_history_replay(rows, ctakens, self.rows, local_length)
            global_vote = _train_votes(
                fold_bits(ghist, length, p.global_index_bits), ctakens, global_table, p.global_pht
            )
            local_vote = _train_votes(
                fold_bits(local, local_length, p.local_pht_index_bits),
                ctakens,
                local_table,
                p.local_pht,
            )
            predictions[start:stop] = native.chooser_replay(
                fold_bits(ghist, length, p.chooser_index_bits),
                global_vote,
                local_vote,
                ctakens,
                chooser_table,
                p.chooser.threshold,
                p.chooser.max_value,
            )
        self.final_history = history.final()
        return predictions

    def writeback(self) -> None:
        self.restore_tables()
        self.predictor.local_histories.restore_all(self.rows)
        self.predictor.history.restore(self.final_history)


# -- loop ------------------------------------------------------------------------


class _LoopKernel(_Kernel):
    """Loop entries step branch by branch in a C core, on a copy of the
    entry array."""

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        p: LoopPredictor = self.predictor
        self.entries = p.snapshot_entries()
        predictions = np.empty(len(pcs), dtype=bool)
        for start, stop in self.chunks(len(pcs), chunk):
            shifted = pcs[start:stop] >> 2
            index = shifted & (p.entries - 1)
            # The tag shifts by the bit length of the index *value*, as
            # LoopPredictor._entry does.
            tags = (shifted >> bit_lengths(index)) & 0xFF
            predictions[start:stop] = native.loop_replay(
                index, tags, takens[start:stop], self.entries,
                p.confidence_threshold, LoopPredictor.MAX_TRIP,
            )
        return predictions

    def writeback(self) -> None:
        self.predictor.restore_entries(self.entries)


# -- multicomponent ----------------------------------------------------------------


#: Component types the multicomponent kernel models exactly, by exact type.
_COMPONENT_KERNELS: dict[type, type[_Kernel]] = {
    BimodalPredictor: _BimodalKernel,
    GsharePredictor: _GshareKernel,
    LocalPredictor: _LocalKernel,
    LoopPredictor: _LoopKernel,
}

#: Largest selection transition table, in index bits: a row's packed
#: counters plus one correctness bit per component.
_MAX_TRANSITION_BITS = 20


@lru_cache(maxsize=8)
def _selection_transitions(components: int, bits: int) -> np.ndarray:
    """Evers selection training as a lookup table.

    A selector row's counters pack into one state ``s`` (component ``i``
    in bits ``[bits*i, bits*(i+1))``); with ``m`` the mask of components
    that voted correctly, entry ``(s << components) | m`` holds the next
    state shifted left once, OR'd with whether the selected component —
    the first maximal counter — was correct.
    """
    top = (1 << bits) - 1
    states = np.arange(1 << (bits * components), dtype=np.int32)[:, None]
    counters = [(states >> (bits * i)) & top for i in range(components)]
    chosen = np.argmax(np.hstack(counters), axis=1)[:, None]  # first maximum: priority order
    masks = np.arange(1 << components, dtype=np.int32)[None, :]
    selected = (masks >> chosen) & 1
    picked = selected.astype(bool)
    following = np.zeros(selected.shape, dtype=np.int32)
    for i, counter in enumerate(counters):
        correct = ((masks >> i) & 1).astype(bool)
        raise_ = ~picked & correct & (counter < top)
        lower = picked & ~correct & (counter > 0)
        following |= (counter + raise_ - lower) << (bits * i)
    table = ((following << 1) | selected).astype(np.uint32).ravel()
    table.flags.writeable = False  # shared by every caller of the cache
    return table


class _MultiComponentKernel(_Kernel):
    """Each component's own kernel gives its vote stream and final state;
    only the selection counters replay, one table lookup per branch."""

    @classmethod
    def supports(cls, predictor: BranchPredictor) -> bool:
        slots = predictor.slots
        return (
            all(type(slot.predictor) in _COMPONENT_KERNELS for slot in slots)
            and len(slots) * (predictor.selector_bits + 1) <= _MAX_TRANSITION_BITS
        )

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        p = self.predictor
        components = len(p.slots)
        self.kernels = [_COMPONENT_KERNELS[type(s.predictor)](s.predictor) for s in p.slots]
        for kernel in self.kernels:
            kernel.nested = True
        self.votes = [kernel.run(pcs, takens, chunk) for kernel in self.kernels]
        self.takens = takens
        bits = p.selector_bits
        shifts = bits * np.arange(components)
        self.state = (p._counters.astype(np.int64) << shifts).sum(axis=1)
        transitions = _selection_transitions(components, bits)
        selected_correct = np.empty(len(pcs), dtype=bool)
        for start, stop in self.chunks(len(pcs), chunk):
            ctakens = takens[start:stop]
            correct = np.zeros(stop - start, dtype=np.int64)
            for i, votes in enumerate(self.votes):
                correct |= (votes[start:stop] == ctakens).astype(np.int64) << i
            rows = (pcs[start:stop] >> 2) & (p.selector_entries - 1)
            selected_correct[start:stop] = native.selection_replay(
                rows, correct, self.state, transitions, components
            )
        return selected_correct == takens

    def writeback(self) -> None:
        p = self.predictor
        for slot, kernel, votes in zip(p.slots, self.kernels, self.votes):
            _commit(slot.predictor, kernel, votes, self.takens)
        packed = self.state[:, None]
        shifts = p.selector_bits * np.arange(len(p.slots))
        p._counters[:] = (packed >> shifts) & p._selector_max


# -- perceptron --------------------------------------------------------------------


class _PerceptronKernel(_Kernel):
    """The ±1 input rows of a chunk in array code, then one sequential C
    training pass over them."""

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        p = self.predictor
        glen, llen = p.global_history_length, p.local_history_length
        self.weights = p.weights.astype(np.int32)
        self.rows = p.local_histories.snapshot() if llen else None
        history = _GlobalHistory(takens, glen, p.history.value)
        # Input bit i of branch t is outcome t-1-i: the reversed window of
        # the glen outcomes before t, as ±1.
        signs = history.outcomes.astype(np.int8) * 2 - 1
        windows = sliding_window_view(signs, glen)
        predictions = np.empty(len(pcs), dtype=bool)
        for start, stop in self.chunks(len(pcs), chunk):
            cpcs = pcs[start:stop]
            ctakens = takens[start:stop]
            inputs = np.empty((stop - start, p.inputs), dtype=np.int8)
            inputs[:, 0] = 1
            inputs[:, 1 : 1 + glen] = windows[start:stop, ::-1]
            if llen:
                rows = (cpcs >> 2) & (p.local_histories.entries - 1)
                local = native.local_history_replay(rows, ctakens, self.rows, llen)
                for i in range(llen):
                    inputs[:, 1 + glen + i] = ((local >> i) & 1) * 2 - 1
            # Signed by the outcome t, w·inputs is the margin t·(w·x), and
            # training adds inputs to the row.  A branch trains exactly when
            # its margin is at most θ: a wrong prediction has a negative
            # margin (or zero, predicting taken on a not-taken branch).
            inputs *= np.where(ctakens, 1, -1).astype(np.int8)[:, None]
            margins = native.perceptron_train(
                hash_pcs(cpcs, 32) % p.num_perceptrons,
                inputs,
                self.weights,
                p.threshold,
                WEIGHT_MIN,
                WEIGHT_MAX,
            )
            # output = t·margin, predicting taken when output >= 0
            predictions[start:stop] = np.where(ctakens, margins >= 0, margins <= 0)
        self.final_history = history.final()
        return predictions

    def writeback(self) -> None:
        p = self.predictor
        p.weights[:] = self.weights
        if self.rows is not None:
            p.local_histories.restore_all(self.rows)
        p.history.restore(self.final_history)


# -- dispatch ------------------------------------------------------------------

#: Kernel implementations by the name a FamilySpec's ``batch_kernel`` flag
#: uses.  A family opts into batch evaluation by declaring one of these
#: names in its registry spec — no edits here needed.
KERNELS: dict[str, type[_Kernel]] = {
    "bimodal": _BimodalKernel,
    "gshare": _GshareKernel,
    "gshare_fast": _GshareFastKernel,
    "bimode": _BiModeKernel,
    "bimode_fast": _BiModeFastKernel,
    "egskew": _EGskewKernel,
    "2bcgskew": _TwoBcGskewKernel,
    "tournament": _TournamentKernel,
    "loop": _LoopKernel,
    "multicomponent": _MultiComponentKernel,
    "perceptron": _PerceptronKernel,
}


def _kernel_for(predictor: BranchPredictor):
    """The kernel class for ``predictor``, or None for scalar-only types.

    Dispatch goes through the family registry's capability flag and matches
    the predictor's *exact* type: a subclass may override indexing or
    update rules the kernel would silently ignore.  A kernel may also
    decline a configuration it does not model exactly.
    """
    from repro.predictors import registry

    spec = registry.spec_for_predictor(predictor)
    if spec is None or spec.batch_kernel is None:
        return None
    try:
        kernel = KERNELS[spec.batch_kernel]
    except KeyError:
        raise ConfigurationError(
            f"family {spec.name!r} declares batch kernel {spec.batch_kernel!r}, "
            f"which this engine does not implement "
            f"(known: {', '.join(sorted(KERNELS))})"
        ) from None
    return kernel if kernel.supports(predictor) else None


def supports_batch(predictor: BranchPredictor) -> bool:
    """True when ``predictor``'s family declares a bit-exact batch kernel
    that models its configuration (for a multicomponent: its component
    types and selection table).

    Exact-type dispatch (via :func:`repro.predictors.registry.
    spec_for_predictor`): a subclass never inherits its parent's kernel.
    """
    return _kernel_for(predictor) is not None


def evaluate_stream(
    predictor: BranchPredictor,
    pcs: np.ndarray,
    takens: np.ndarray,
    chunk_branches: int = DEFAULT_CHUNK,
    commit: bool = True,
) -> BatchResult:
    """Evaluate ``predictor`` over a branch stream with the batch engine.

    With ``commit`` (the default) the predictor object afterwards holds
    exactly the state a scalar ``predict``/``update`` replay would leave —
    everything its ``state()`` exposes.  The predictor may start from any
    state a scalar run can leave, as long as no prediction is in flight.
    """
    kernel_type = _kernel_for(predictor)
    if kernel_type is None:
        raise ConfigurationError(
            f"no batch kernel for predictor type {type(predictor).__name__}; "
            f"use the scalar engine"
        )
    if predictor._pending is not None:
        raise ProtocolError(
            f"{predictor.name}: batch evaluation with a scalar prediction in flight"
        )
    if chunk_branches < 1:
        raise ConfigurationError(f"chunk_branches must be >= 1, got {chunk_branches}")
    pcs = np.ascontiguousarray(pcs, dtype=np.int64)
    takens = np.ascontiguousarray(takens, dtype=bool)
    if pcs.shape != takens.shape:
        raise ConfigurationError("pcs and takens must have matching shapes")
    kernel = kernel_type(predictor)
    predictions = kernel.run(pcs, takens, chunk_branches)
    result = BatchResult(
        predictor=predictor.name, predictions=predictions, outcomes=takens
    )
    if commit:
        _commit(predictor, kernel, predictions, takens)
    return result


def evaluate_trace(
    predictor: BranchPredictor,
    trace: ColumnarTrace,
    chunk_branches: int = DEFAULT_CHUNK,
    commit: bool = True,
) -> BatchResult:
    """Evaluate ``predictor`` over a trace's conditional-branch stream."""
    pcs, takens = trace.branch_arrays()
    return evaluate_stream(predictor, pcs, takens, chunk_branches, commit)


def measure_accuracy_batch(
    predictor: BranchPredictor,
    trace: ColumnarTrace,
    warmup_branches: int = 0,
    attribution: bool = False,
):
    """Batch twin of :func:`repro.harness.experiment.measure_accuracy`:
    same result object, same predictor side effects, array-speed.

    ``attribution`` buckets scored mispredictions per static PC from the
    prediction stream — identical to the scalar attribution path.
    """
    from repro.harness.experiment import AccuracyResult
    from repro.obs.attribution import attribution_from_arrays

    pcs, takens = trace.branch_arrays()
    result = evaluate_stream(predictor, pcs, takens)
    scored = max(result.branches - warmup_branches, 0)
    breakdown = None
    if attribution:
        scored_pcs = pcs[warmup_branches:] if scored else pcs[:0]
        wrong = (
            result.predictions[warmup_branches:] != result.outcomes[warmup_branches:]
            if scored
            else np.zeros(0, dtype=bool)
        )
        breakdown = attribution_from_arrays(predictor.name, trace.name, scored_pcs, wrong)
    return AccuracyResult(
        predictor=predictor.name,
        trace=trace.name,
        branches=scored,
        mispredictions=result.mispredictions_after(warmup_branches) if scored else 0,
        storage_bytes=predictor.storage_bytes,
        attribution=breakdown,
    )
