"""Branch predicates: the behavioural atoms of the synthetic workloads.

Each static conditional branch in a synthetic program owns a predicate that
decides its direction from program state.  The predicate mix is what gives
each SPECint stand-in its predictor-relevant personality:

* ``BiasedPredicate`` — direction is a (possibly heavily) biased coin.
  Bimodal predictors eat these for breakfast; they set the floor.
* ``PatternPredicate`` — a fixed periodic direction sequence per branch
  (e.g. TTNTTN...).  Local-history predictors capture these exactly.
* ``GlobalParityPredicate`` — direction is the parity of *other recent
  branch outcomes* at specified lags, with optional noise.  This is the
  global-history correlation that gshare-family predictors exploit; long
  lags beyond a table predictor's index width are where the perceptron's
  long histories win.
* ``HiddenStatePredicate`` — direction tracks a hidden boolean that flips
  as a slow random walk.  Recent-outcome correlation exists (the same
  variable drives other branches) but there is an irreducible noise floor —
  the mcf/twolf-style hard branches.
* ``LoopPredicate`` is not here: loop trip behaviour is produced
  structurally by the program generator's Loop nodes.

All randomness flows through the generator's seeded streams, so traces are
bit-reproducible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import ExactStream


class ProgramState:
    """Dynamic state predicates read: recent branch outcomes and hidden bits.

    ``outcome_history`` is the program-wide sequence of conditional-branch
    outcomes (newest in bit 0), maintained by the executor — the ground
    truth that a predictor's global history register approximates.

    ``predicate_state`` holds what a stateful predicate carries from one
    evaluation to the next (a pattern's position, a matcher's automaton
    state), keyed by ``id(predicate)``.  Keeping it here rather than on the
    predicate leaves a laid-out program unchanged by a run, so each
    execution starts every predicate afresh.
    """

    HISTORY_BITS = 128

    def __init__(self, rng: ExactStream | np.random.Generator, hidden_bits: int = 8) -> None:
        if hidden_bits < 1:
            raise ConfigurationError("need at least one hidden bit")
        self.rng = rng
        self.outcome_history = 0
        self.hidden = [bool(rng.integers(2)) for _ in range(hidden_bits)]
        self.predicate_state: dict[int, object] = {}

    def record_outcome(self, taken: bool) -> None:
        """Append a conditional-branch outcome to the global stream."""
        self.outcome_history = (
            (self.outcome_history << 1) | int(taken)
        ) & ((1 << self.HISTORY_BITS) - 1)

    def outcome_at_lag(self, lag: int) -> bool:
        """Outcome of the conditional branch ``lag`` branches ago (1 = last)."""
        if lag < 1 or lag > self.HISTORY_BITS:
            raise ConfigurationError(f"lag {lag} out of range")
        return bool((self.outcome_history >> (lag - 1)) & 1)

    def flip_hidden(self, index: int, probability: float) -> None:
        """Random-walk step for a hidden bit (called by straight-line code)."""
        if self.rng.random() < probability:
            self.hidden[index] = not self.hidden[index]


class Predicate(ABC):
    """Decides a branch direction from program state."""

    @abstractmethod
    def evaluate(self, state: ProgramState) -> bool:
        """Direction for this execution of the branch."""

    def describe(self) -> str:
        """Short human-readable behaviour tag (used in program dumps)."""
        return type(self).__name__


@dataclass
class BiasedPredicate(Predicate):
    """Taken with fixed probability ``bias``."""

    bias: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.bias <= 1.0:
            raise ConfigurationError(f"bias must be in [0, 1], got {self.bias}")

    def evaluate(self, state: ProgramState) -> bool:
        return bool(state.rng.random() < self.bias)

    def describe(self) -> str:
        return f"biased({self.bias:.2f})"


@dataclass
class PatternPredicate(Predicate):
    """A fixed repeating direction pattern, private to the branch."""

    pattern: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ConfigurationError("pattern must not be empty")

    def evaluate(self, state: ProgramState) -> bool:
        key = id(self)
        position = state.predicate_state.get(key, 0)
        state.predicate_state[key] = (position + 1) % len(self.pattern)
        return self.pattern[position]

    def describe(self) -> str:
        return "pattern(" + "".join("T" if b else "N" for b in self.pattern) + ")"


@dataclass
class GlobalParityPredicate(Predicate):
    """A boolean function of recent global outcomes at ``lags``.

    ``op`` selects the combiner: ``xor`` (true parity — balanced), ``and``
    or ``or`` (biased, like real-world correlated branches: "if the earlier
    check passed, this one almost always does too").  The result is XORed
    with ``invert`` and flipped with probability ``noise``.  All three forms
    are deterministic functions of global history, so any predictor whose
    history window covers the largest lag can learn them.
    """

    lags: tuple[int, ...]
    invert: bool = False
    noise: float = 0.0
    op: str = "xor"

    def __post_init__(self) -> None:
        if not self.lags:
            raise ConfigurationError("need at least one lag")
        if not 0.0 <= self.noise <= 1.0:
            raise ConfigurationError(f"noise must be in [0, 1], got {self.noise}")
        if self.op not in ("xor", "and", "or"):
            raise ConfigurationError(f"unknown parity op {self.op!r}")

    def evaluate(self, state: ProgramState) -> bool:
        bits = [state.outcome_at_lag(lag) for lag in self.lags]
        if self.op == "xor":
            value = False
            for bit in bits:
                value ^= bit
        elif self.op == "and":
            value = all(bits)
        else:
            value = any(bits)
        value ^= self.invert
        if self.noise and state.rng.random() < self.noise:
            value = not value
        return value

    def describe(self) -> str:
        return f"parity({self.op}, lags={self.lags}, noise={self.noise:.2f})"


@dataclass
class HiddenStatePredicate(Predicate):
    """Tracks hidden bit ``index``, inverted or not, with noise."""

    index: int
    invert: bool = False
    noise: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise <= 1.0:
            raise ConfigurationError(f"noise must be in [0, 1], got {self.noise}")

    def evaluate(self, state: ProgramState) -> bool:
        value = state.hidden[self.index % len(state.hidden)] ^ self.invert
        if self.noise and state.rng.random() < self.noise:
            value = not value
        return value

    def describe(self) -> str:
        return f"hidden(bit={self.index}, noise={self.noise:.2f})"
