"""Two-level local-history predictor (Yeh & Patt PAg organization).

First level: a table of per-branch history shift registers indexed by PC.
Second level: a PHT of saturating counters indexed by the local history.
This is the local half of the Alpha EV6 tournament predictor and a component
of the multi-component hybrid.
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import fold, log2_exact
from repro.common.counters import CounterTable
from repro.common.history import LocalHistoryTable
from repro.predictors.base import BranchPredictor


class LocalPredictor(BranchPredictor):
    """PAg: ``history_entries`` local histories feeding a shared PHT."""

    name = "local"

    def __init__(
        self,
        history_entries: int,
        history_length: int,
        pht_entries: int | None = None,
        counter_bits: int = 2,
    ) -> None:
        super().__init__()
        if pht_entries is None:
            pht_entries = 1 << history_length
        self.pht_index_bits = log2_exact(pht_entries)
        self.histories = LocalHistoryTable(history_entries, history_length)
        self.pht = CounterTable(pht_entries, bits=counter_bits)

    @property
    def storage_bits(self) -> int:
        """Hardware state consumed by the predictor, in bits."""
        return self.histories.storage_bits + self.pht.storage_bits

    def tables(self) -> dict[str, CounterTable]:
        """Named counter tables (checkpoint/diff tooling)."""
        return {"pht": self.pht}

    def state(self) -> dict[str, np.ndarray]:
        """PHT, local histories and stats (diff tooling)."""
        return {**super().state(), "local_histories": self.histories.snapshot()}

    def _pht_index(self, pc: int) -> int:
        local = self.histories.read(pc)
        return fold(local, self.histories.length, self.pht_index_bits)

    def _predict(self, pc: int) -> tuple[bool, object]:
        index = self._pht_index(pc)
        return self.pht.predict(index), index

    def _update(self, pc: int, taken: bool, predicted: bool, context: object) -> None:
        self.pht.update(context, taken)
        self.histories.push(pc, taken)
