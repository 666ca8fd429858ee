"""bimode.fast — the paper's future work, realized.

The paper closes with: *"We are currently studying ways to reorganize
other predictors to take advantage of the same ideas."*  This module
applies the gshare.fast pipelining recipe (Section 3.1) to the Bi-Mode
predictor, the natural next candidate because all of its big state is
history-indexed:

* the two **direction tables** are indexed gshare-style, so each can be
  pipelined exactly like the gshare.fast PHT: a line of candidate counters
  is prefetched with the *older* history bits, and the newest (in-flight)
  bits plus folded low PC bits select within the line in a single cycle —
  two line fetches run in parallel, one per direction table;
* the **choice table** is PC-indexed, which cannot be prefetched with
  history — but it does not need to be large (it only stores per-branch
  bias), so it is capped at the single-cycle SRAM size (1K entries, the
  Jiménez et al. [7] limit the paper builds on).

The result keeps Bi-Mode's aliasing resistance — a taken-biased and a
not-taken-biased branch that collide in a direction table are separated by
the choice table — while delivering every prediction in one cycle, no
overriding required.  Update policy is standard Bi-Mode partial update.

Index structure per direction table (shared with gshare.fast):

    s    = max(L, b)                      # line-address staleness
    high = (H >> s) & mask(n - b)         # known at line-fetch launch
    low  = fold9(pc, b) ^ (H & mask(b))   # single-cycle select
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import fold, log2_exact, mask
from repro.common.counters import CounterTable
from repro.common.errors import ConfigurationError
from repro.core.gshare_fast import (
    MAX_BUFFER_BITS,
    MIN_BUFFER_BITS,
    PC_SELECT_BITS,
    PHT_BANKS,
    default_buffer_bits,
)
from repro.predictors.base import BranchPredictor
from repro.timing.fo4 import PAPER_CLOCK, ClockModel
from repro.timing.sram import pht_array

#: Largest single-cycle PC-indexed table (the 1K-entry limit of [7]).
MAX_CHOICE_ENTRIES = 1024


class BiModeFastPredictor(BranchPredictor):
    """Pipelined Bi-Mode: two gshare.fast-style direction tables plus a
    small single-cycle choice table."""

    name = "bimode_fast"

    def __init__(
        self,
        direction_entries: int,
        choice_entries: int = MAX_CHOICE_ENTRIES,
        pht_latency: int | None = None,
        buffer_bits: int | None = None,
        clock: ClockModel = PAPER_CLOCK,
    ) -> None:
        super().__init__()
        self.index_bits = log2_exact(direction_entries)
        if self.index_bits < 2:
            raise ConfigurationError("bimode.fast needs direction tables of >= 4 entries")
        if choice_entries > MAX_CHOICE_ENTRIES:
            raise ConfigurationError(
                f"choice table must be single-cycle (<= {MAX_CHOICE_ENTRIES} entries), "
                f"got {choice_entries}"
            )
        if pht_latency is None:
            pht_latency = pht_array(max(direction_entries // PHT_BANKS, 8)).access_cycles(clock)
        if pht_latency < 1:
            raise ConfigurationError(f"PHT latency must be >= 1 cycle, got {pht_latency}")
        if buffer_bits is None:
            buffer_bits = default_buffer_bits(pht_latency, self.index_bits)
        if not MIN_BUFFER_BITS <= buffer_bits <= MAX_BUFFER_BITS:
            raise ConfigurationError(
                f"buffer_bits must be in [{MIN_BUFFER_BITS}, {MAX_BUFFER_BITS}], "
                f"got {buffer_bits}"
            )
        if buffer_bits >= self.index_bits:
            raise ConfigurationError(
                f"buffer_bits {buffer_bits} must be smaller than index width "
                f"{self.index_bits}"
            )
        self.pht_latency = pht_latency
        self.buffer_bits = buffer_bits
        self.staleness = max(pht_latency, buffer_bits)
        self.taken_table = CounterTable(direction_entries, bits=2, init=2)
        self.not_taken_table = CounterTable(direction_entries, bits=2, init=1)
        self.choice_table = CounterTable(choice_entries, bits=2)
        # Speculative history; length covers the index plus staleness window.
        self._history = 0
        self._history_bits = self.index_bits + self.staleness

    @property
    def storage_bits(self) -> int:
        """Hardware state consumed by the predictor, in bits."""
        line_buffers = 2 * (1 << self.buffer_bits) * 2  # one line per table
        return (
            self.taken_table.storage_bits
            + self.not_taken_table.storage_bits
            + self.choice_table.storage_bits
            + self._history_bits
            + line_buffers
        )

    def tables(self) -> dict[str, CounterTable]:
        """Named counter tables (checkpoint/diff tooling)."""
        return {
            "taken": self.taken_table,
            "not_taken": self.not_taken_table,
            "choice": self.choice_table,
        }

    def state(self) -> dict[str, np.ndarray]:
        """Counter tables, the speculative history and stats (diff tooling)."""
        return {**super().state(), "history": np.array([self._history], dtype=np.int64)}

    def direction_index(self, pc: int) -> int:
        """Pipelinable index: identical structure to gshare.fast's."""
        high = (self._history >> self.staleness) & mask(self.index_bits - self.buffer_bits)
        pc_bits = fold((pc >> 2) & mask(PC_SELECT_BITS), PC_SELECT_BITS, self.buffer_bits)
        low = (pc_bits ^ self._history) & mask(self.buffer_bits)
        return (high << self.buffer_bits) | low

    def line_address(self, pc: int) -> int:
        """Which direction-table line the pipelined fetch brings in."""
        return self.direction_index(pc) >> self.buffer_bits

    def _choice_index(self, pc: int) -> int:
        return (pc >> 2) & (self.choice_table.size - 1)

    def _predict(self, pc: int) -> tuple[bool, object]:
        direction_index = self.direction_index(pc)
        choice_index = self._choice_index(pc)
        choose_taken_table = self.choice_table.predict(choice_index)
        table = self.taken_table if choose_taken_table else self.not_taken_table
        prediction = table.predict(direction_index)
        return prediction, (direction_index, choice_index, choose_taken_table, prediction)

    def _update(self, pc: int, taken: bool, predicted: bool, context: object) -> None:
        direction_index, choice_index, choose_taken_table, prediction = context
        # Bi-Mode partial update: leave the choice alone when the selected
        # direction table was right despite disagreeing with the choice.
        selected_correct = prediction == taken
        choice_agrees = choose_taken_table == taken
        if not (selected_correct and not choice_agrees):
            self.choice_table.update(choice_index, taken)
        table = self.taken_table if choose_taken_table else self.not_taken_table
        table.update(direction_index, taken)
        self._history = ((self._history << 1) | int(taken)) & mask(self._history_bits)


def bimode_fast_from_config(config) -> BiModeFastPredictor:
    """bimode.fast from a sized configuration (latency/buffer widths come
    from the SRAM delay model at the paper's clock)."""
    return BiModeFastPredictor(
        direction_entries=config.direction_entries,
        choice_entries=config.choice_entries,
    )


def build_bimode_fast(budget_bytes: int, clock: ClockModel = PAPER_CLOCK) -> BiModeFastPredictor:
    """Size a bimode.fast for ``budget_bytes``.

    The choice table takes its single-cycle maximum (1K entries, 256 bytes);
    the two direction tables split the rest evenly.
    """
    from repro.predictors.sizing import size_bimode_fast, validate_budget

    validate_budget(budget_bytes)
    config = size_bimode_fast(budget_bytes)
    return BiModeFastPredictor(
        direction_entries=config.direction_entries,
        choice_entries=config.choice_entries,
        clock=clock,
    )


def _register() -> None:
    """Enroll bimode.fast in the declarative family registry."""
    from repro.predictors.registry import FamilySpec, register
    from repro.predictors.sizing import BiModeFastConfig, size_bimode_fast

    register(
        FamilySpec(
            name="bimode_fast",
            config_type=BiModeFastConfig,
            sizer=size_bimode_fast,
            builder=bimode_fast_from_config,
            predictor_type=BiModeFastPredictor,
            batch_kernel="bimode_fast",
            single_cycle=True,
        )
    )


_register()
