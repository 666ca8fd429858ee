"""e-gskew and 2Bc-gskew predictors (Michaud, Seznec & Uhlig; Seznec et al.).

e-gskew attacks aliasing by reading three banks through *different* skewing
hash functions and taking a majority vote: two branches that collide in one
bank almost never collide in the other two.

2Bc-gskew — the organization behind the Alpha EV8 predictor — adds a
metapredictor that chooses per-branch between the bimodal bank (good for
strongly biased branches, trains instantly) and the e-gskew majority (good
for history-correlated branches), with the partial-update policy from the
EV8 paper:

  * prediction correct: strengthen only the banks that agreed with it;
  * prediction incorrect: if the meta chose bimodal, train only bimodal and
    the meta; otherwise train all banks toward the outcome;
  * the meta trains whenever bimodal and the gskew majority disagree, toward
    whichever was right.

The two global banks use different history lengths (G0 short, G1 long),
matching the EV8 design's staggered histories.
"""

from __future__ import annotations

from repro.common.bits import bit_reverse, fold, hash_pc, log2_exact, mask, rotate_left
from repro.common.counters import CounterTable
from repro.common.history import HistoryRegister
from repro.predictors.base import BranchPredictor


def skew_index(pc: int, history: int, history_length: int, index_bits: int, bank: int) -> int:
    """Skewing hash for bank ``bank`` (0, 1, 2).

    Each bank combines the same (pc, history) pair through a differently
    rotated/reflected mix so inter-bank collisions are decorrelated, in the
    spirit of Seznec's H/H⁻¹ skewing family.
    """
    pc_bits = hash_pc(pc, index_bits)
    hist_bits = fold(history, history_length, index_bits)
    if bank == 0:
        mixed = pc_bits ^ hist_bits
    elif bank == 1:
        mixed = rotate_left(pc_bits, index_bits // 3 + 1, index_bits) ^ bit_reverse(
            hist_bits, index_bits
        )
    else:
        mixed = bit_reverse(pc_bits, index_bits) ^ rotate_left(
            hist_bits, 2 * index_bits // 3 + 1, index_bits
        )
    return mixed & mask(index_bits)


class EGskewPredictor(BranchPredictor):
    """Enhanced gskew: BIM + two skewed global banks, majority vote."""

    name = "egskew"

    def __init__(
        self,
        bank_entries: int,
        history_length: int | None = None,
    ) -> None:
        super().__init__()
        self.index_bits = log2_exact(bank_entries)
        if history_length is None:
            history_length = self.index_bits
        self.history = HistoryRegister(history_length)
        self.bim = CounterTable(bank_entries, bits=2)
        self.g0 = CounterTable(bank_entries, bits=2)
        self.g1 = CounterTable(bank_entries, bits=2)

    @property
    def storage_bits(self) -> int:
        """Hardware state consumed by the predictor, in bits."""
        return (
            self.bim.storage_bits
            + self.g0.storage_bits
            + self.g1.storage_bits
            + self.history.length
        )

    def tables(self) -> dict[str, CounterTable]:
        """Named counter tables (checkpoint/diff tooling)."""
        return {"bim": self.bim, "g0": self.g0, "g1": self.g1}

    def _indices(self, pc: int) -> tuple[int, int, int]:
        bim_index = (pc >> 2) & (self.bim.size - 1)
        history = self.history.value
        g0_index = skew_index(pc, history, self.history.length, self.index_bits, 1)
        g1_index = skew_index(pc, history, self.history.length, self.index_bits, 2)
        return bim_index, g0_index, g1_index

    def _predict(self, pc: int) -> tuple[bool, object]:
        indices = self._indices(pc)
        votes = (
            self.bim.predict(indices[0]),
            self.g0.predict(indices[1]),
            self.g1.predict(indices[2]),
        )
        prediction = sum(votes) >= 2
        return prediction, (indices, votes)

    def _update(self, pc: int, taken: bool, predicted: bool, context: object) -> None:
        (bim_index, g0_index, g1_index), votes = context
        correct = predicted == taken
        banks = ((self.bim, bim_index), (self.g0, g0_index), (self.g1, g1_index))
        for (bank, index), vote in zip(banks, votes):
            if correct and vote != taken:
                # Partial update: do not disturb a bank that was outvoted.
                continue
            bank.update(index, taken)
        self.history.push(taken)


class TwoBcGskewPredictor(BranchPredictor):
    """2Bc-gskew: e-gskew plus a metapredictor (EV8-style organization)."""

    name = "2bcgskew"

    def __init__(
        self,
        bank_entries: int,
        short_history: int | None = None,
        long_history: int | None = None,
    ) -> None:
        super().__init__()
        self.index_bits = log2_exact(bank_entries)
        if long_history is None:
            long_history = min(2 * self.index_bits, 40)
        if short_history is None:
            short_history = max(self.index_bits // 2, 1)
        self.history = HistoryRegister(long_history)
        self.short_history = short_history
        self.long_history = long_history
        self.bim = CounterTable(bank_entries, bits=2)
        self.g0 = CounterTable(bank_entries, bits=2)
        self.g1 = CounterTable(bank_entries, bits=2)
        self.meta = CounterTable(bank_entries, bits=2)

    @property
    def storage_bits(self) -> int:
        """Hardware state consumed by the predictor, in bits."""
        return (
            self.bim.storage_bits
            + self.g0.storage_bits
            + self.g1.storage_bits
            + self.meta.storage_bits
            + self.history.length
        )

    def tables(self) -> dict[str, CounterTable]:
        """Named counter tables (checkpoint/diff tooling)."""
        return {"bim": self.bim, "g0": self.g0, "g1": self.g1, "meta": self.meta}

    def _indices(self, pc: int) -> tuple[int, int, int, int]:
        history = self.history.value
        short = history & mask(self.short_history)
        bim_index = (pc >> 2) & (self.bim.size - 1)
        g0_index = skew_index(pc, short, self.short_history, self.index_bits, 1)
        g1_index = skew_index(pc, history, self.long_history, self.index_bits, 2)
        meta_index = skew_index(pc, short, self.short_history, self.index_bits, 0)
        return bim_index, g0_index, g1_index, meta_index

    def _predict(self, pc: int) -> tuple[bool, object]:
        indices = self._indices(pc)
        bim_index, g0_index, g1_index, meta_index = indices
        bim_vote = self.bim.predict(bim_index)
        g0_vote = self.g0.predict(g0_index)
        g1_vote = self.g1.predict(g1_index)
        majority = (int(bim_vote) + int(g0_vote) + int(g1_vote)) >= 2
        use_gskew = self.meta.predict(meta_index)
        prediction = majority if use_gskew else bim_vote
        return prediction, (indices, (bim_vote, g0_vote, g1_vote), majority, use_gskew)

    def _update(self, pc: int, taken: bool, predicted: bool, context: object) -> None:
        indices, votes, majority, use_gskew = context
        bim_index, g0_index, g1_index, meta_index = indices
        bim_vote, g0_vote, g1_vote = votes
        correct = predicted == taken

        if bim_vote != majority:
            # Meta trains toward whichever side was right.
            self.meta.update(meta_index, majority == taken)

        if correct:
            # Strengthen only the banks that participated in the correct
            # prediction (EV8 partial update).
            if use_gskew:
                if bim_vote == taken:
                    self.bim.update(bim_index, taken)
                if g0_vote == taken:
                    self.g0.update(g0_index, taken)
                if g1_vote == taken:
                    self.g1.update(g1_index, taken)
            else:
                self.bim.update(bim_index, taken)
        elif not use_gskew:
            # Bimodal spoke and was wrong: train it (meta already steered).
            self.bim.update(bim_index, taken)
        else:
            # The gskew side spoke and was wrong: train everything.
            self.bim.update(bim_index, taken)
            self.g0.update(g0_index, taken)
            self.g1.update(g1_index, taken)

        self.history.push(taken)
