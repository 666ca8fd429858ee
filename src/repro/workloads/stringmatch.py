"""Morris-Pratt / Knuth-Morris-Pratt string-matching workloads.

Nicaud, Pivoteau & Vialette ("Branch Prediction Analysis of Morris-Pratt
and Knuth-Morris-Pratt Algorithms") observe that the comparison branch of
MP/KMP over a random text is one of the few real workloads whose expected
misprediction rate has *closed-form* analysis: the matcher's automaton
state is a small Markov chain, and every predictor-relevant statistic is
an exact function of that chain.  This module emits those workloads as
ordinary traces; :mod:`repro.workloads.oracle` computes the matching
analytic expectations, giving the whole predictor + trace + sweep stack a
ground-truth gate that no golden file can provide.

The workload is a *real execution*, not a synthetic stand-in: a
:class:`MatcherPredicate` steps the actual MP/KMP inner loop (pattern
state, failure links, text characters drawn from the profile's source) and
the standard :class:`~repro.workloads.program.ProgramExecutor` runs it as
the sole conditional branch of a tiny laid-out program.  One executed
``main`` iteration is one character comparison; the emitted trace is the
comparison-branch stream the paper analyzes.  Keeping the comparison as
the *only* conditional site is deliberate: it removes table aliasing and
history pollution from the measurement, so the oracle's per-state
decomposition applies exactly (DESIGN.md, "oracle validation").

Profiles are frozen dataclasses, so the content-addressed trace store
digests them field-by-field like any SPEC stand-in: a trace is keyed by
(algorithm, pattern, source, seed, fault bias, ...) and warm-starts
byte-identically across processes.

``fault_bias`` is the suite's fault-injection hook: with probability
``fault_bias`` the *observed* branch outcome is flipped (the matcher state
advances on the true comparison), producing a deliberately-biased trace
that must trip the oracle gate.  Because the bias lives in the profile, a
biased trace gets its own store digest — it can never poison a clean key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.workloads.cfg import (
    Function,
    If,
    Program,
    StraightCode,
    layout_program,
)
from repro.workloads.predicates import Predicate, ProgramState
from repro.workloads.program import MemoryConfig

ALGORITHMS = ("mp", "kmp")
SOURCE_KINDS = ("uniform", "bernoulli")


def pattern_symbols(pattern: str) -> tuple[int, ...]:
    """The pattern as 0-based symbol indices (``a`` -> 0, ``b`` -> 1, ...)."""
    if not pattern:
        raise ConfigurationError("pattern must be non-empty")
    symbols = []
    for letter in pattern:
        index = ord(letter) - ord("a")
        if index < 0 or index >= 26:
            raise ConfigurationError(
                f"pattern letters must be lowercase a-z, got {letter!r}"
            )
        symbols.append(index)
    return tuple(symbols)


def border_table(pattern: str) -> list[int]:
    """``border[j]`` = length of the longest proper border of ``pattern[:j]``
    for j in 0..m (``border[0]`` and ``border[1]`` are 0)."""
    symbols = pattern_symbols(pattern)
    m = len(symbols)
    border = [0] * (m + 1)
    k = 0
    for j in range(1, m):
        while k > 0 and symbols[j] != symbols[k]:
            k = border[k]
        if symbols[j] == symbols[k]:
            k += 1
        border[j + 1] = k
    return border


def failure_table(pattern: str, algorithm: str) -> list[int]:
    """Mismatch transition per state j (0..m-1).

    ``fail[j]`` is the state that re-examines the *same* character, or
    ``-1`` when the character should be abandoned (consume, restart at 0).
    Morris-Pratt uses the plain border; KMP uses the strict border (skip
    borders whose next pattern character equals the one that just
    mismatched — they would mismatch again).  ``fail[0]`` is ``-1`` for
    both: a mismatch at state 0 always consumes the character.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}"
        )
    symbols = pattern_symbols(pattern)
    border = border_table(pattern)
    m = len(symbols)
    fail = [-1] * m
    if algorithm == "mp":
        for j in range(1, m):
            fail[j] = border[j]
        return fail
    # KMP strict borders: computed in increasing j, so fail[k] for k < j is
    # already strict when consulted.
    for j in range(1, m):
        k = border[j]
        if symbols[k] != symbols[j]:
            fail[j] = k
        else:
            fail[j] = fail[k]
    return fail


def restart_state(pattern: str) -> int:
    """State after reporting a full match (both algorithms restart at the
    border of the whole pattern)."""
    return border_table(pattern)[len(pattern)]


class MatcherPredicate(Predicate):
    """The MP/KMP comparison branch, stepped one comparison per evaluation.

    The live matcher state (pattern position ``j``, the pending text
    character when the last mismatch retained it) lives in the run's
    :class:`ProgramState`, and fresh characters come from the executor's
    seeded stream — the same trace seed reproduces the same text, hence
    the same trace bytes.
    """

    def __init__(
        self,
        pattern: str,
        algorithm: str,
        source_kind: str,
        alphabet: int,
        bernoulli_p: float,
        fault_bias: float = 0.0,
    ) -> None:
        self.symbols = pattern_symbols(pattern)
        self.fail = failure_table(pattern, algorithm)
        self.restart = restart_state(pattern)
        self.algorithm = algorithm
        self.source_kind = source_kind
        self.alphabet = alphabet
        self.bernoulli_p = bernoulli_p
        self.fault_bias = fault_bias

    def _draw(self, state: ProgramState) -> int:
        if self.source_kind == "bernoulli":
            return 0 if state.rng.random() < self.bernoulli_p else 1
        return int(state.rng.integers(self.alphabet))

    def evaluate(self, state: ProgramState) -> bool:
        """One comparison: True (the then-path) on a character match."""
        key = id(self)
        j, char = state.predicate_state.get(key, (0, None))
        if char is None:
            char = self._draw(state)
        match = char == self.symbols[j]
        if match:
            char = None  # consumed
            j += 1
            if j == len(self.symbols):
                j = self.restart  # full match: continue searching
        else:
            link = self.fail[j]
            if link < 0:
                char = None  # abandon the character
                j = 0
            else:
                j = link  # re-examine the same character
        state.predicate_state[key] = (j, char)
        if self.fault_bias and state.rng.random() < self.fault_bias:
            match = not match  # fault injection: observed outcome only
        return match

    def describe(self) -> str:
        return (
            f"{self.algorithm}(pattern="
            + "".join(chr(ord("a") + s) for s in self.symbols)
            + f", source={self.source_kind})"
        )


@dataclass(frozen=True)
class StringMatchProfile:
    """Everything that determines one string-matching trace.

    A frozen dataclass so the trace store content-addresses it exactly
    like a :class:`~repro.workloads.synth.WorkloadProfile`; ``kind``
    disambiguates the digest namespace from synthesized profiles.
    """

    name: str
    pattern: str = "ab"
    algorithm: str = "mp"  # "mp" | "kmp"
    source_kind: str = "uniform"  # "uniform" | "bernoulli"
    alphabet: int = 2  # uniform source: symbol count
    bernoulli_p: float = 0.5  # bernoulli source: P(symbol 'a')
    seed: int = 1
    fault_bias: float = 0.0  # flip the observed outcome with this probability
    kind: str = "stringmatch"
    #: executor personality (harness compatibility; no memory ops are
    #: emitted, and ``ilp`` only matters if someone cycle-simulates this).
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    hidden_bits: int = 8
    ilp: float = 2.8

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.source_kind not in SOURCE_KINDS:
            raise ConfigurationError(
                f"source_kind must be one of {SOURCE_KINDS}, got {self.source_kind!r}"
            )
        if self.alphabet < 2 or self.alphabet > 26:
            raise ConfigurationError(
                f"alphabet size must be in [2, 26], got {self.alphabet}"
            )
        if self.source_kind == "bernoulli":
            if self.alphabet != 2:
                raise ConfigurationError("a bernoulli source is binary (alphabet=2)")
            if not 0.0 < self.bernoulli_p < 1.0:
                raise ConfigurationError(
                    f"bernoulli_p must be in (0, 1), got {self.bernoulli_p}"
                )
        if not 0.0 <= self.fault_bias <= 1.0:
            raise ConfigurationError(
                f"fault_bias must be in [0, 1], got {self.fault_bias}"
            )
        symbols = pattern_symbols(self.pattern)
        if max(symbols) >= self.alphabet:
            raise ConfigurationError(
                f"pattern {self.pattern!r} uses letters outside its "
                f"{self.alphabet}-symbol alphabet"
            )

    def source_probabilities(self) -> tuple[float, ...]:
        """P(symbol) per alphabet symbol — the oracle's source model."""
        if self.source_kind == "bernoulli":
            return (self.bernoulli_p, 1.0 - self.bernoulli_p)
        return tuple(1.0 / self.alphabet for _ in range(self.alphabet))


def build_stringmatch_program(profile: StringMatchProfile) -> Program:
    """The matcher as a laid-out program: one comparison per main iteration.

    The ``If`` holds the live matcher; the then/else bodies are the match
    and failure-link bookkeeping.  The comparison is the program's only
    conditional branch — the then-path's jump over the else side and the
    main wrap are unconditional, so they never touch predictor history.
    """
    predicate = MatcherPredicate(
        pattern=profile.pattern,
        algorithm=profile.algorithm,
        source_kind=profile.source_kind,
        alphabet=profile.alphabet,
        bernoulli_p=profile.bernoulli_p,
        fault_bias=profile.fault_bias,
    )
    main = Function(
        name="main",
        body=[
            StraightCode(instructions=2),  # load text char / loop bookkeeping
            If(
                predicate=predicate,
                then_body=[StraightCode(instructions=2)],  # advance i and j
                else_body=[StraightCode(instructions=2)],  # follow failure link
            ),
        ],
    )
    return layout_program(Program(name=profile.name, functions=[main]))


def stringmatch_profiles() -> dict[str, StringMatchProfile]:
    """The registered oracle kernels: MP and KMP over a small grid of
    (pattern, source) cells chosen so every predictor class the oracle
    models is exercised — balanced and biased sources, self-overlapping
    and period-2 patterns (where MP and KMP genuinely differ)."""
    cells = [
        ("ab", "uniform", 2, 0.5),
        ("aab", "bernoulli", 2, 0.7),
        ("aaaa", "bernoulli", 2, 0.7),
        ("abab", "uniform", 2, 0.5),
    ]
    profiles: dict[str, StringMatchProfile] = {}
    for algorithm in ALGORITHMS:
        for pattern, source_kind, alphabet, p in cells:
            tag = f"{source_kind[0]}{str(p).replace('0.', '')}" if source_kind == "bernoulli" else f"u{alphabet}"
            name = f"{algorithm}_{pattern}_{tag}"
            profiles[name] = StringMatchProfile(
                name=name,
                pattern=pattern,
                algorithm=algorithm,
                source_kind=source_kind,
                alphabet=alphabet,
                bernoulli_p=p,
                seed=11,
            )
    return profiles
