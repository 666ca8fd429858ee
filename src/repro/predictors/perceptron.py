"""Perceptron predictor (Jiménez & Lin, HPCA-7 / TOCS 2002).

Each branch hashes to a perceptron: a vector of small signed weights, one per
history bit plus a bias.  The prediction is the sign of the dot product of
the weights with the history (encoded ±1).  Training bumps each weight toward
agreement with the outcome whenever the prediction was wrong *or* the output
magnitude was below the threshold θ = ⌊1.93·h + 14⌋.

Following the paper under reproduction (Section 4.1.1), the input vector
concatenates *global and local* history.  Weights are 8-bit signed and
saturate; budget accounting charges one byte per weight plus the local
history table.

This is the "complex" predictor whose deep adder tree motivates the paper's
latency argument: its accuracy is the best of the group, but its computation
adds cycles that gshare.fast never pays.
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import hash_pc
from repro.common.errors import ConfigurationError
from repro.common.history import HistoryRegister, LocalHistoryTable
from repro.predictors.base import BranchPredictor

WEIGHT_MIN = -128
WEIGHT_MAX = 127


def training_threshold(history_bits: int) -> int:
    """θ = ⌊1.93·h + 14⌋ from Jiménez & Lin."""
    return int(1.93 * history_bits + 14)


class PerceptronPredictor(BranchPredictor):
    """Table of perceptrons over concatenated global + local history."""

    name = "perceptron"

    def __init__(
        self,
        num_perceptrons: int,
        global_history: int,
        local_history: int = 0,
        local_history_entries: int = 1024,
    ) -> None:
        super().__init__()
        if num_perceptrons <= 0:
            raise ConfigurationError("need at least one perceptron")
        if global_history <= 0:
            raise ConfigurationError("perceptron needs a positive global history length")
        if local_history < 0:
            raise ConfigurationError("local history length must be >= 0")
        self.num_perceptrons = num_perceptrons
        self.global_history_length = global_history
        self.local_history_length = local_history
        self.history = HistoryRegister(global_history)
        self.local_histories = (
            LocalHistoryTable(local_history_entries, local_history) if local_history else None
        )
        self.inputs = 1 + global_history + local_history  # bias + history bits
        self.threshold = training_threshold(global_history + local_history)
        self.weights = np.zeros((num_perceptrons, self.inputs), dtype=np.int16)

    @property
    def storage_bits(self) -> int:
        """Hardware state consumed by the predictor, in bits."""
        bits = self.num_perceptrons * self.inputs * 8 + self.history.length
        if self.local_histories is not None:
            bits += self.local_histories.storage_bits
        return bits

    def state(self) -> dict[str, np.ndarray]:
        """Weights, both histories and stats (diff tooling)."""
        state = {**super().state(), "weights": self.weights.copy()}
        if self.local_histories is not None:
            state["local_histories"] = self.local_histories.snapshot()
        return state

    def _row(self, pc: int) -> int:
        return hash_pc(pc, 32) % self.num_perceptrons

    def _input_vector(self, pc: int) -> np.ndarray:
        """±1 input vector: [bias=1, global bits..., local bits...]."""
        x = np.empty(self.inputs, dtype=np.int16)
        x[0] = 1
        ghist = self.history.value
        for i in range(self.global_history_length):
            x[1 + i] = 1 if (ghist >> i) & 1 else -1
        if self.local_histories is not None:
            lhist = self.local_histories.read(pc)
            base = 1 + self.global_history_length
            for i in range(self.local_history_length):
                x[base + i] = 1 if (lhist >> i) & 1 else -1
        return x

    def _predict(self, pc: int) -> tuple[bool, object]:
        row = self._row(pc)
        x = self._input_vector(pc)
        output = int(np.dot(self.weights[row].astype(np.int64), x))
        return output >= 0, (row, x, output)

    def _update(self, pc: int, taken: bool, predicted: bool, context: object) -> None:
        row, x, output = context
        if predicted != taken or abs(output) <= self.threshold:
            t = 1 if taken else -1
            np.clip(self.weights[row] + t * x, WEIGHT_MIN, WEIGHT_MAX, out=self.weights[row])
        if self.local_histories is not None:
            self.local_histories.push(pc, taken)
        self.history.push(taken)
