"""EV6-style tournament (hybrid) predictor.

The Alpha 21264 predictor described in Section 2.1 of the paper: a global
two-level component (PHT indexed by the global history register), a local
two-level component (per-branch histories feeding 3-bit counters), and a
chooser PHT indexed by the global history that picks the component whose
prediction is used.

The EV6 proportions (4K global / 1K x 10-bit local / 1K 3-bit local PHT / 4K
chooser) are the defaults; all sizes scale for budget sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import fold, log2_exact
from repro.common.counters import CounterTable
from repro.common.history import HistoryRegister, LocalHistoryTable
from repro.predictors.base import BranchPredictor


class TournamentPredictor(BranchPredictor):
    """Global + local components arbitrated by a global-history chooser."""

    name = "tournament"

    def __init__(
        self,
        global_entries: int = 4096,
        local_histories: int = 1024,
        local_history_length: int = 10,
        local_pht_entries: int = 1024,
        chooser_entries: int = 4096,
    ) -> None:
        super().__init__()
        self.global_index_bits = log2_exact(global_entries)
        self.local_pht_index_bits = log2_exact(local_pht_entries)
        self.chooser_index_bits = log2_exact(chooser_entries)
        self.history = HistoryRegister(self.global_index_bits)
        self.global_pht = CounterTable(global_entries, bits=2)
        self.local_histories = LocalHistoryTable(local_histories, local_history_length)
        self.local_pht = CounterTable(local_pht_entries, bits=3)
        self.chooser = CounterTable(chooser_entries, bits=2)

    @property
    def storage_bits(self) -> int:
        """Hardware state consumed by the predictor, in bits."""
        return (
            self.global_pht.storage_bits
            + self.local_histories.storage_bits
            + self.local_pht.storage_bits
            + self.chooser.storage_bits
            + self.history.length
        )

    def tables(self) -> dict[str, CounterTable]:
        """Named counter tables (checkpoint/diff tooling)."""
        return {"global": self.global_pht, "local": self.local_pht, "chooser": self.chooser}

    def state(self) -> dict[str, np.ndarray]:
        """Counter tables, both histories and stats (diff tooling)."""
        return {**super().state(), "local_histories": self.local_histories.snapshot()}

    def _indices(self, pc: int) -> tuple[int, int, int]:
        global_index = fold(self.history.value, self.history.length, self.global_index_bits)
        local = self.local_histories.read(pc)
        local_index = fold(local, self.local_histories.length, self.local_pht_index_bits)
        chooser_index = fold(self.history.value, self.history.length, self.chooser_index_bits)
        return global_index, local_index, chooser_index

    def _predict(self, pc: int) -> tuple[bool, object]:
        global_index, local_index, chooser_index = self._indices(pc)
        global_vote = self.global_pht.predict(global_index)
        local_vote = self.local_pht.predict(local_index)
        use_global = self.chooser.predict(chooser_index)
        prediction = global_vote if use_global else local_vote
        context = (global_index, local_index, chooser_index, global_vote, local_vote)
        return prediction, context

    def _update(self, pc: int, taken: bool, predicted: bool, context: object) -> None:
        global_index, local_index, chooser_index, global_vote, local_vote = context
        if global_vote != local_vote:
            # Chooser trains toward the component that was right; "taken"
            # here means "prefer the global component".
            self.chooser.update(chooser_index, global_vote == taken)
        self.global_pht.update(global_index, taken)
        self.local_pht.update(local_index, taken)
        self.local_histories.push(pc, taken)
        self.history.push(taken)
