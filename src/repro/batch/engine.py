"""The batch evaluation engine: whole-trace predictor runs in C cores.

:func:`evaluate_stream` replays a ``(pc, taken)`` branch stream through a
predictor in chunks and returns the full per-branch prediction stream.
The contract is **bit-exactness** with the scalar ``predict``/``update``
protocol: identical predictions for every branch and identical final
predictor state (everything ``predictor.state()`` exposes: tables, history
registers, local histories, weights, loop entries, stats, pending delayed
updates).  ``tests/test_differential_batch.py`` enforces the contract with
:mod:`repro.batch.diff`.

How each family is batched
--------------------------

Every registered family has a kernel.  A kernel hands the sequential C
cores of :mod:`repro.native` the chunk's PCs and outcomes, its history
registers (:class:`repro.native.History`, carried from chunk to chunk)
and one index rule per table (:func:`repro.native.rule`: the fold, skew,
gshare and gshare.fast hashes, the loop tag, the perceptron's row, each
as the scalar predictor forms it).  Each core forms every branch's
indices from its PC and the history before it, steps the predictor state
that the branch reads after earlier branches wrote it, then shifts the
outcome into the history, all on the kernel's working copies, one call
per chunk per core:

1. **A counter table that every branch reads and then trains** is
   ``counter_replay``: bimodal, gshare, gshare.fast (whose non-speculative
   update delay the core applies as ``DelayedUpdateQueue`` does, starting
   from the writes still pending) and the local predictor's PHT, indexed
   from its local-history rows.  **tournament** is its two PHTs on that
   core and ``chooser_replay`` for the chooser that every branch reads and
   that trains only where the votes disagree.
2. **An update rule that couples several tables** is a C replay too:
   Bi-Mode and bimode.fast (the choice table steers which direction table
   trains, and its partial update depends on that table's prediction),
   e-gskew and 2Bc-gskew (majority vote with partial update, plus the
   2Bc-gskew meta).  The **loop** predictor's entry array is stepped the
   same way.
3. **A composite reuses its components' kernels.**  **multicomponent**
   runs each component's own kernel for its vote stream and final state,
   then replays only the Evers selection counters in C, as one lookup per
   branch in a precomputed transition table over a row's packed counters.
4. **Weights train in one sequential C pass.**  **perceptron**: each
   branch's output is the dot product of its weight row with its inputs,
   the bias and each global and local history bit as ±1, and the row
   trains when the outcome sign times the output is at most θ.

A predictor whose exact type is not a registered family, a configuration
whose history is wider than a core's register
(:data:`repro.native.HISTORY_BITS`), or a multicomponent whose components
or selection table no kernel models exactly, resolves to the scalar
engine under ``engine="auto"``.

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

from repro import native
from repro import obs
from repro.common.bits import log2_exact
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


def _pc_rule(size: int) -> np.ndarray:
    """The index ``(pc >> 2) & (size - 1)`` of a table of ``size`` entries."""
    return native.rule(native.PC, log2_exact(size))


def _local(table) -> native.History:
    """A working copy of a ``LocalHistoryTable``'s rows."""
    return native.History(table.length, table.snapshot())


def _train_votes(
    pcs: np.ndarray,
    takens: np.ndarray,
    rule: np.ndarray,
    history: native.History,
    table: np.ndarray,
    counters: CounterTable,
) -> np.ndarray:
    """Votes of a counter table that every branch reads at ``rule``'s index
    over ``history`` and then trains with no delay; advances ``table`` and
    ``history`` past the chunk."""
    votes, _ = native.counter_replay(
        pcs, takens, rule, history, table, counters.threshold, counters.max_value
    )
    return votes


class _Kernel:
    """One predictor's batch evaluation.  :meth:`run` computes the
    prediction stream and the final state without touching the predictor;
    :meth:`writeback` then mirrors that state onto it."""

    #: Set on a composite's component kernels (see :func:`_record_chunk`).
    nested = False

    def __init__(self, predictor: BranchPredictor) -> None:
        self.predictor = predictor

    @staticmethod
    def widths(predictor: BranchPredictor) -> tuple[int, ...]:
        """The widths of the history registers and rows its cores carry."""
        return ()

    def rules(self) -> list[np.ndarray]:
        """The index rule of each table the cores read, in the order the
        scalar predictor forms the indices."""
        raise NotImplementedError

    @classmethod
    def supports(cls, predictor: BranchPredictor) -> bool:
        """Whether this kernel is exact for ``predictor``'s configuration:
        every history it carries fits a core's register."""
        return all(width <= native.HISTORY_BITS for width in cls.widths(predictor))

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
    """Chunk loop shared by every one-read-one-write-per-branch family, on
    ``counter_replay`` over the global history (none for bimodal)."""

    #: Branches of delay between a branch's update issue and visibility.
    delay = 0

    @staticmethod
    def widths(predictor: BranchPredictor) -> tuple[int, ...]:
        register = getattr(predictor, "history", None)
        return (register.length,) if register is not None else ()

    def __init__(self, predictor: BranchPredictor) -> None:
        super().__init__(predictor)
        self.table = predictor.table.snapshot()
        register = self.register = getattr(predictor, "history", None)
        self.history = native.History(
            *((register.length, register.value) if register is not None else (0,))
        )

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        counters = self.predictor.table
        predictions = np.empty(len(pcs), dtype=bool)
        # The delayed writes still pending from before the stream come first.
        queued = self.predictor._deferred_updates.snapshot() if self.delay else []
        pending = len(queued)
        queue = (np.zeros(self.delay, dtype=np.int64), np.zeros(self.delay, dtype=bool))
        for slot, (cell, taken) in enumerate(queued):
            queue[0][slot], queue[1][slot] = cell, taken
        (rule,) = self.rules()
        for start, stop in self.chunks(len(pcs), chunk):
            predictions[start:stop], pending = native.counter_replay(
                pcs[start:stop], takens[start:stop], rule, self.history, self.table,
                counters.threshold, counters.max_value, queue, pending,
            )
        self._deferred = list(zip(queue[0][:pending].tolist(), queue[1][:pending].tolist()))
        return predictions

    def writeback(self) -> None:
        self.predictor.table.restore(self.table)
        if self.register is not None:
            self.register.restore(self.history.value)


class _BimodalKernel(_SingleTableKernel):
    def rules(self) -> list[np.ndarray]:
        return [_pc_rule(self.predictor.table.size)]


class _GshareKernel(_SingleTableKernel):
    def rules(self) -> list[np.ndarray]:
        return [native.rule(native.GSHARE, self.predictor.index_bits)]


def _fast_rule(predictor: BranchPredictor) -> np.ndarray:
    """gshare.fast's pipelinable index (also bimode.fast's direction
    index): a line address from stale history, a select from the folded
    low PC bits and the newest history."""
    p = predictor
    return native.rule(native.FAST, p.index_bits, p.buffer_bits, p.staleness, PC_SELECT_BITS)


class _GshareFastKernel(_SingleTableKernel):
    def __init__(self, predictor: BranchPredictor) -> None:
        super().__init__(predictor)
        self.delay = predictor.update_delay

    def rules(self) -> list[np.ndarray]:
        return [_fast_rule(self.predictor)]

    def writeback(self) -> None:
        super().writeback()
        # Reconstruct the delayed-update FIFO the scalar run would hold.
        self.predictor._deferred_updates.restore(self._deferred)


class _LocalKernel(_Kernel):
    """The two-level local predictor (a multicomponent component): one PHT
    indexed by each branch's local-history row, folded."""

    widths = staticmethod(lambda p: (p.histories.length,))

    def rules(self) -> list[np.ndarray]:
        p: LocalPredictor = self.predictor
        return [native.rule(native.FOLD, p.pht_index_bits, p.histories.length)]

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        p: LocalPredictor = self.predictor
        (table,) = self.snapshot_tables(p.pht)
        self.local = _local(p.histories)
        (rule,) = self.rules()
        predictions = np.empty(len(pcs), dtype=bool)
        for start, stop in self.chunks(len(pcs), chunk):
            predictions[start:stop] = _train_votes(
                pcs[start:stop], takens[start:stop], rule, self.local, table, p.pht
            )
        return predictions

    def writeback(self) -> None:
        self.restore_tables()
        self.predictor.histories.restore_all(self.local.rows)


# -- Bi-Mode and bimode.fast -----------------------------------------------------


class _BiModeKernel(_Kernel):
    """Bi-Mode's coupled counter core over gshare direction indices."""

    @staticmethod
    def register(predictor: BranchPredictor) -> tuple[int, int]:
        """The global history's length and value."""
        return predictor.history.length, predictor.history.value

    @classmethod
    def widths(cls, predictor: BranchPredictor) -> tuple[int, ...]:
        return (cls.register(predictor)[0],)

    def direction_rule(self) -> np.ndarray:
        return native.rule(native.GSHARE, self.predictor.direction_index_bits)

    def rules(self) -> list[np.ndarray]:
        return [self.direction_rule(), _pc_rule(self.predictor.choice_table.size)]

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        p = self.predictor
        tables = self.snapshot_tables(p.taken_table, p.not_taken_table, p.choice_table)
        self.history = native.History(*self.register(p))
        rules = np.stack(self.rules())
        predictions = np.empty(len(pcs), dtype=bool)
        for start, stop in self.chunks(len(pcs), chunk):
            predictions[start:stop] = native.bimode_replay(
                pcs[start:stop],
                takens[start:stop],
                rules,
                self.history,
                *tables,
                p.taken_table.threshold,
                p.taken_table.max_value,
                p.choice_table.threshold,
                p.choice_table.max_value,
            )
        return predictions

    def writeback(self) -> None:
        self.restore_tables()
        self.predictor.history.restore(self.history.value)


class _BiModeFastKernel(_BiModeKernel):
    """bimode.fast: the Bi-Mode core over gshare.fast direction indices,
    with its speculative history kept as a plain int."""

    @staticmethod
    def register(predictor: BranchPredictor) -> tuple[int, int]:
        return predictor._history_bits, predictor._history

    def direction_rule(self) -> np.ndarray:
        return _fast_rule(self.predictor)

    def writeback(self) -> None:
        self.restore_tables()
        self.predictor._history = self.history.value


# -- e-gskew and 2Bc-gskew -------------------------------------------------------


class _GskewKernel(_Kernel):
    """Shared chunk loop of the gskew family: the partial-update majority
    vote replayed by a C core (``replay``) over the bank rules (``rules``).
    Every bank of these families is a 2-bit counter table."""

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        p = self.predictor
        tables = self.snapshot_tables(*p.tables().values())
        self.history = native.History(p.history.length, p.history.value)
        rules = np.stack(self.rules())
        predictions = np.empty(len(pcs), dtype=bool)
        for start, stop in self.chunks(len(pcs), chunk):
            predictions[start:stop] = self.replay(
                pcs[start:stop],
                takens[start:stop],
                rules,
                self.history,
                tables,
                p.bim.threshold,
                p.bim.max_value,
            )
        return predictions

    def writeback(self) -> None:
        self.restore_tables()
        self.predictor.history.restore(self.history.value)


class _EGskewKernel(_GskewKernel):
    widths = staticmethod(lambda p: (p.history.length,))

    def rules(self) -> list[np.ndarray]:
        p = self.predictor
        length, bits = p.history.length, p.index_bits
        return [
            _pc_rule(p.bim.size),
            native.rule(native.SKEW, bits, length, 1),
            native.rule(native.SKEW, bits, length, 2),
        ]

    replay = staticmethod(native.egskew_replay)


class _TwoBcGskewKernel(_GskewKernel):
    widths = staticmethod(lambda p: (p.long_history, p.short_history))

    def rules(self) -> list[np.ndarray]:
        p = self.predictor
        bits = p.index_bits
        # G0 and the meta read the short history: skew_index folds only
        # its low short_history bits.
        return [
            _pc_rule(p.bim.size),
            native.rule(native.SKEW, bits, p.short_history, 1),
            native.rule(native.SKEW, bits, p.long_history, 2),
            native.rule(native.SKEW, bits, p.short_history, 0),
        ]

    replay = staticmethod(native.twobc_gskew_replay)


# -- tournament ------------------------------------------------------------------


class _TournamentKernel(_Kernel):
    """Three cores per chunk: the global and local PHT votes, then the
    chooser that picks between them."""

    widths = staticmethod(lambda p: (p.history.length, p.local_histories.length))

    def rules(self) -> list[np.ndarray]:
        """The global PHT's and the chooser's rules over the global
        history, the local PHT's over the local-history rows."""
        p = self.predictor
        length = p.history.length
        return [
            native.rule(native.FOLD, p.global_index_bits, length),
            native.rule(native.FOLD, p.local_pht_index_bits, p.local_histories.length),
            native.rule(native.FOLD, p.chooser_index_bits, length),
        ]

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        p = self.predictor
        global_table, local_table, chooser_table = self.snapshot_tables(
            p.global_pht, p.local_pht, p.chooser
        )
        length = p.history.length
        # The global PHT and the chooser each carry their own copy of the
        # global history through the stream.
        self.history = native.History(length, p.history.value)
        chooser_history = native.History(length, p.history.value)
        self.local = _local(p.local_histories)
        global_rule, local_rule, chooser_rule = self.rules()
        predictions = np.empty(len(pcs), dtype=bool)
        for start, stop in self.chunks(len(pcs), chunk):
            cpcs, ctakens = pcs[start:stop], takens[start:stop]
            global_vote = _train_votes(
                cpcs, ctakens, global_rule, self.history, global_table, p.global_pht
            )
            local_vote = _train_votes(
                cpcs, ctakens, local_rule, self.local, local_table, p.local_pht
            )
            predictions[start:stop] = native.chooser_replay(
                cpcs,
                ctakens,
                chooser_rule,
                chooser_history,
                global_vote,
                local_vote,
                chooser_table,
                p.chooser.threshold,
                p.chooser.max_value,
            )
        return predictions

    def writeback(self) -> None:
        self.restore_tables()
        self.predictor.local_histories.restore_all(self.local.rows)
        self.predictor.history.restore(self.history.value)


# -- loop ------------------------------------------------------------------------


class _LoopKernel(_Kernel):
    """Loop entries step branch by branch in a C core, on a copy of the
    entry array."""

    def rules(self) -> list[np.ndarray]:
        bits = log2_exact(self.predictor.entries)
        return [native.rule(native.PC, bits), native.rule(native.LOOP_TAG, bits)]

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        p: LoopPredictor = self.predictor
        self.entries = p.snapshot_entries()
        rules = np.stack(self.rules())
        predictions = np.empty(len(pcs), dtype=bool)
        for start, stop in self.chunks(len(pcs), chunk):
            predictions[start:stop] = native.loop_replay(
                pcs[start:stop], takens[start:stop], rules, self.entries,
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
            all(
                type(slot.predictor) in _COMPONENT_KERNELS
                and _COMPONENT_KERNELS[type(slot.predictor)].supports(slot.predictor)
                for slot in slots
            )
            and len(slots) * (predictor.selector_bits + 1) <= _MAX_TRANSITION_BITS
        )

    def rules(self) -> list[np.ndarray]:
        """The selection counters' row rule."""
        return [_pc_rule(self.predictor.selector_entries)]

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
        (rule,) = self.rules()
        selected_correct = np.empty(len(pcs), dtype=bool)
        for start, stop in self.chunks(len(pcs), chunk):
            ctakens = takens[start:stop]
            correct = np.zeros(stop - start, dtype=np.int64)
            for i, votes in enumerate(self.votes):
                correct |= (votes[start:stop] == ctakens).astype(np.int64) << i
            selected_correct[start:stop] = native.selection_replay(
                pcs[start:stop], rule, correct, self.state, transitions, components
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
    """One sequential C training pass, which forms each branch's row and
    ±1 inputs from its PC and its global and local histories."""

    widths = staticmethod(lambda p: (p.global_history_length, p.local_history_length))

    def rules(self) -> list[np.ndarray]:
        """The weight row's rule."""
        return [native.rule(native.ROW, 32, self.predictor.num_perceptrons)]

    def run(self, pcs: np.ndarray, takens: np.ndarray, chunk: int) -> np.ndarray:
        p = self.predictor
        self.weights = p.weights.astype(np.int32)
        self.history = native.History(p.global_history_length, p.history.value)
        local = p.local_histories
        self.local = _local(local) if local is not None else native.History(0)
        (rule,) = self.rules()
        predictions = np.empty(len(pcs), dtype=bool)
        for start, stop in self.chunks(len(pcs), chunk):
            predictions[start:stop] = native.perceptron_train(
                pcs[start:stop],
                takens[start:stop],
                rule,
                self.history,
                self.local,
                self.weights,
                p.threshold,
                WEIGHT_MIN,
                WEIGHT_MAX,
            )
        return predictions

    def writeback(self) -> None:
        p = self.predictor
        p.weights[:] = self.weights
        if p.local_histories is not None:
            p.local_histories.restore_all(self.local.rows)
        p.history.restore(self.history.value)


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
) -> BatchResult:
    """Evaluate ``predictor`` over a branch stream with the batch engine.

    The predictor object afterwards holds exactly the state a scalar
    ``predict``/``update`` replay would leave — everything its ``state()``
    exposes.  The predictor may start from any state a scalar run can
    leave, as long as no prediction is in flight.
    """
    kernel_type = _kernel_for(predictor)
    if kernel_type is None:
        raise ConfigurationError(
            f"no batch kernel models this {type(predictor).__name__} (its type or its "
            f"configuration); use the scalar engine"
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
    _commit(predictor, kernel, predictions, takens)
    return result


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
