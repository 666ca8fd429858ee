"""Random structured-program synthesis from a workload profile.

Given a :class:`WorkloadProfile`, :func:`build_program` generates a seeded,
laid-out synthetic program whose *static* structure (function count, branch
sites, loop nests, predicate mix, code footprint) realizes the profile.
Executing the program (``repro.workloads.program``) then produces the
dynamic behaviour each experiment consumes.

The profile's predicate mix is the main calibration lever: it controls how
much of the branch population is trivially biased, short-range correlated
(table-predictor food), long-range correlated (perceptron food),
fixed-pattern (local-history food), fixed-trip loops (loop-predictor food),
or hidden-state noisy (nobody's food — the misprediction floor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import ExactStream, derive
from repro.workloads.cfg import (
    Call,
    Function,
    If,
    Loop,
    MemOp,
    Node,
    Program,
    StraightCode,
    TripSampler,
    layout_program,
)
from repro.workloads.predicates import (
    BiasedPredicate,
    GlobalParityPredicate,
    HiddenStatePredicate,
    PatternPredicate,
    Predicate,
)
from repro.workloads.program import MemoryConfig


@dataclass(frozen=True)
class PredicateMix:
    """Relative weights of branch-behaviour classes (normalized on use)."""

    biased: float = 0.50
    short_parity: float = 0.20  # lags within ~8 branches
    long_parity: float = 0.06  # lags 20-60 branches back
    pattern: float = 0.12
    hidden: float = 0.12

    def weights(self) -> np.ndarray:
        """Normalized class probabilities in declaration order."""
        raw = np.array(
            [self.biased, self.short_parity, self.long_parity, self.pattern, self.hidden],
            dtype=float,
        )
        total = raw.sum()
        if total <= 0:
            raise ConfigurationError("predicate mix weights must sum to > 0")
        return raw / total


@dataclass(frozen=True)
class WorkloadProfile:
    """Everything needed to synthesize and execute one benchmark stand-in."""

    name: str
    seed: int = 1
    #: program shape
    functions: int = 6
    elements_per_body: tuple[int, int] = (3, 7)  # min/max elements per body
    max_nest_depth: int = 4
    call_probability: float = 0.12
    loop_probability: float = 0.15
    if_probability: float = 0.45
    else_probability: float = 0.4
    #: straight-line code
    block_instructions: tuple[int, int] = (2, 7)
    load_density: float = 0.20  # loads per instruction
    store_density: float = 0.10
    random_access_fraction: float = 0.08  # of memory ops; rest split stack/stride
    stack_access_fraction: float = 0.4
    #: branch behaviour
    predicate_mix: PredicateMix = field(default_factory=PredicateMix)
    easy_noise: float = 0.01  # noise on correlated/pattern predicates
    hard_noise: float = 0.12  # noise on hidden-state predicates
    bias_strength: float = 0.985  # how biased the biased branches are
    long_lag_range: tuple[int, int] = (20, 56)
    short_lag_range: tuple[int, int] = (1, 8)
    pattern_length_range: tuple[int, int] = (2, 5)
    loop_trip_fixed_fraction: float = 0.75
    loop_trip_mean: float = 14.0
    hidden_bits: int = 8
    hidden_flip_probability: float = 0.008
    #: expected-cost budgets (dynamic instructions per execution).  These
    #: bound the cost explosion of nested loops and call chains: one main
    #: iteration costs ~main_cost instructions, so a trace of N instructions
    #: cycles through the whole program ~N/main_cost times.
    main_cost: float = 3500.0
    function_cost_range: tuple[float, float] = (300.0, 2000.0)
    #: memory personality
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    #: backend personality (consumed by the cycle simulator)
    ilp: float = 2.8  # sustainable issue rate absent front-end stalls

    def __post_init__(self) -> None:
        if self.functions < 1:
            raise ConfigurationError("profile needs at least one function")
        if self.max_nest_depth < 1:
            raise ConfigurationError("max nest depth must be >= 1")
        if not 1 <= self.block_instructions[0] <= self.block_instructions[1]:
            raise ConfigurationError("invalid block instruction range")
        if self.ilp <= 0:
            raise ConfigurationError("ilp must be positive")


class _ProgramSynthesizer:
    """Stateful helper that builds one program from a profile."""

    _PREDICATE_KINDS = ("biased", "short_parity", "long_parity", "pattern", "hidden")

    def __init__(self, profile: WorkloadProfile) -> None:
        self.profile = profile
        self.rng = ExactStream(derive(profile.seed, "synth", profile.name))
        self._mix = tuple(profile.predicate_mix.weights().tolist())

    def make_predicate(self) -> Predicate:
        """Draw one branch predicate from the profile's mix."""
        profile = self.profile
        kind = self._PREDICATE_KINDS[self.rng.choice(len(self._PREDICATE_KINDS), p=self._mix)]
        if kind == "biased":
            strength = profile.bias_strength
            bias = strength if self.rng.random() < 0.5 else 1.0 - strength
            # Jitter so not every biased branch is identical.
            bias = min(max(bias + self.rng.normal(0, 0.02), 0.005), 0.995)
            return BiasedPredicate(bias=bias)
        if kind == "short_parity":
            low, high = profile.short_lag_range
            count = int(self.rng.integers(1, 3))
            lags = tuple(
                sorted(int(lag) for lag in self.rng.choice(range(low, high + 1), size=count, replace=False))
            )
            # Real correlated branches are usually biased as well: AND/OR
            # forms dominate; balanced XOR parity stays in the minority.
            op = str(self.rng.choice(["and", "or", "xor"], p=[0.35, 0.35, 0.30]))
            return GlobalParityPredicate(
                lags=lags, invert=bool(self.rng.integers(2)), noise=profile.easy_noise, op=op
            )
        if kind == "long_parity":
            low, high = profile.long_lag_range
            lags = (int(self.rng.integers(low, high + 1)),)
            return GlobalParityPredicate(
                lags=lags, invert=bool(self.rng.integers(2)), noise=profile.easy_noise
            )
        if kind == "pattern":
            low, high = profile.pattern_length_range
            length = int(self.rng.integers(low, high + 1))
            pattern = tuple(bool(self.rng.integers(2)) for _ in range(length))
            # Degenerate all-same patterns are just biased branches; keep them.
            return PatternPredicate(pattern=pattern)
        return HiddenStatePredicate(
            index=int(self.rng.integers(profile.hidden_bits)),
            invert=bool(self.rng.integers(2)),
            noise=profile.hard_noise,
        )

    def make_straight(self) -> StraightCode:
        """Generate one straight-line code run with memory ops."""
        profile = self.profile
        low, high = profile.block_instructions
        instructions = int(self.rng.integers(low, high + 1))
        mem_ops: list[MemOp] = []
        for _ in range(instructions):
            roll = self.rng.random()
            if roll < profile.load_density:
                mem_ops.append(MemOp(kind=self._mem_kind(), is_store=False))
            elif roll < profile.load_density + profile.store_density:
                mem_ops.append(MemOp(kind=self._mem_kind(), is_store=True))
        flips: list[tuple[int, float]] = []
        if self.rng.random() < 0.3:
            flips.append(
                (int(self.rng.integers(profile.hidden_bits)), profile.hidden_flip_probability)
            )
        return StraightCode(
            instructions=instructions, mem_ops=tuple(mem_ops), hidden_flips=tuple(flips)
        )

    def _mem_kind(self) -> str:
        roll = self.rng.random()
        if roll < self.profile.random_access_fraction:
            return "random"
        if roll < self.profile.random_access_fraction + self.profile.stack_access_fraction:
            return "stack"
        return "stride"

    def make_trip_sampler(self, depth: int) -> TripSampler:
        """Trip counts taper with nesting depth: inner loops are hot (the
        profile's trip mean), outer loops iterate a few times — otherwise
        nested means multiply and one outer-loop entry would swallow the
        whole trace without ever revisiting the rest of the program."""
        profile = self.profile
        if depth <= 1:
            mean = profile.loop_trip_mean
        elif depth == 2:
            mean = min(6.0, profile.loop_trip_mean)
        else:
            mean = 4.0
        if self.rng.random() < profile.loop_trip_fixed_fraction:
            trips = max(4, int(self.rng.normal(mean, 2)))
            return TripSampler(kind="fixed", mean=trips)
        if self.rng.random() < 0.1:
            # Geometric trips are memoryless — the hardest loop behaviour —
            # so they stay rare; real loop trip counts cluster tightly.
            return TripSampler(kind="geometric", mean=mean)
        low = max(2, int(mean) - 1)
        high = int(mean) + 1
        return TripSampler(kind="uniform", low=low, high=high)

    def _trip_mean(self, sampler: TripSampler) -> float:
        if sampler.kind == "fixed":
            return float(sampler.mean)
        if sampler.kind == "geometric":
            return float(sampler.mean)
        return (sampler.low + sampler.high) / 2.0

    def make_body(
        self, depth: int, function_index: int, budget: float
    ) -> tuple[list[Node], float]:
        """Generate a body whose *expected* dynamic cost stays within
        ``budget`` instructions; returns (nodes, estimated cost).

        Cost budgeting is what keeps one main iteration to ~main_cost
        instructions: loop bodies receive their share of the remaining
        budget divided by the expected trip count, and a call is only placed
        when its callee's (already known) cost fits.  Without this, nested
        loop means multiply through call chains and a single iteration of
        main would dwarf any realistic trace length.
        """
        profile = self.profile
        lead = self.make_straight()
        body: list[Node] = [lead]
        cost = float(lead.instructions)
        max_elements = profile.elements_per_body[1] * 4
        while cost < budget and len(body) < max_elements:
            remaining = budget - cost
            roll = self.rng.random()
            if depth > 0 and remaining > 10 and roll < profile.if_probability:
                then_share = remaining * self.rng.uniform(0.15, 0.45)
                then_body, then_cost = self.make_body(depth - 1, function_index, then_share)
                else_body: list[Node] = []
                else_cost = 0.0
                if self.rng.random() < profile.else_probability:
                    else_share = remaining * self.rng.uniform(0.1, 0.3)
                    else_body, else_cost = self.make_body(depth - 1, function_index, else_share)
                body.append(
                    If(predicate=self.make_predicate(), then_body=then_body, else_body=else_body)
                )
                cost += 1 + 0.5 * then_cost + 0.5 * else_cost
            elif (
                depth > 0
                and remaining > 20
                and roll < profile.if_probability + profile.loop_probability
            ):
                trips = self.make_trip_sampler(depth)
                trip_mean = self._trip_mean(trips)
                loop_share = remaining * self.rng.uniform(0.3, 0.7) / trip_mean
                loop_body, body_cost = self.make_body(depth - 1, function_index, max(loop_share, 3.0))
                body.append(Loop(body=loop_body, trips=trips))
                cost += trip_mean * (body_cost + 1)
            elif (
                roll
                < profile.if_probability + profile.loop_probability + profile.call_probability
                and self._affordable_callees(function_index, remaining)
            ):
                callee = int(self.rng.choice(self._affordable_callees(function_index, remaining)))
                body.append(Call(callee_index=callee))
                cost += 2 + self._function_costs[callee]
            else:
                straight = self.make_straight()
                body.append(straight)
                cost += straight.instructions
        return body, cost

    def _affordable_callees(self, function_index: int, remaining: float) -> list[int]:
        """Higher-index functions whose expected cost fits the budget."""
        return [
            index
            for index, callee_cost in self._function_costs.items()
            if index > function_index and callee_cost + 2 <= remaining
        ]

    def build(self) -> Program:
        """Synthesize all functions (callees first) and lay out the program."""
        profile = self.profile
        self._function_costs: dict[int, float] = {}
        bodies: dict[int, list[Node]] = {}
        # Build callees first (reverse index order) so call costs are known.
        for index in reversed(range(1, profile.functions)):
            low, high = profile.function_cost_range
            budget = float(self.rng.uniform(low, high))
            depth = max(profile.max_nest_depth - 1, 1)
            body, cost = self.make_body(depth, index, budget)
            bodies[index] = body
            self._function_costs[index] = cost
        main_body, _ = self.make_body(profile.max_nest_depth, 0, profile.main_cost)
        bodies[0] = main_body
        functions = [
            Function(name="main" if index == 0 else f"fn{index}", body=bodies[index])
            for index in range(profile.functions)
        ]
        program = Program(name=profile.name, functions=functions)
        return layout_program(program)


def build_program(profile: WorkloadProfile) -> Program:
    """Synthesize and lay out the program for ``profile`` (deterministic)."""
    return _ProgramSynthesizer(profile).build()


def scenario_profiles() -> dict[str, WorkloadProfile]:
    """Scenario-diverse profiles beyond the SPEC stand-ins.

    Three behaviour classes the SPEC set under-represents, named in the
    roadmap as the diversity the H2P critique (Lin & Tarsa) says
    golden-file suites miss.  They enroll in sweeps, stores, parallel
    execution and figure configs purely by being registered in the
    workload catalog — zero harness edits, the PR-4 extension claim
    replayed on workloads.

    * ``interp`` — interpreter-like: a large flat set of small handlers
      reached through dense call dispatch, dominated by short-range
      correlated and fixed-pattern branches (the dispatch loop's food).
    * ``server`` — server-like: very large static footprint and a
      low-locality heap (64 MB working set, high random-access fraction,
      little hot-loop reuse), modest ILP.
    * ``adversarial`` — period-mixing worst case: long fixed patterns and
      correlation lags straddling ``GSHARE_MAX_HISTORY`` (so sized global
      histories can never cover them all), weak bias, heavy hidden-state
      noise, geometric (memoryless) loop trips.
    """
    kib = 1024
    mib = 1024 * 1024
    return {
        "interp": WorkloadProfile(
            name="interp",
            seed=401,
            functions=28,
            call_probability=0.34,
            elements_per_body=(2, 5),
            max_nest_depth=3,
            predicate_mix=PredicateMix(
                biased=0.30, short_parity=0.34, long_parity=0.04, pattern=0.22, hidden=0.10
            ),
            hard_noise=0.06,
            bias_strength=0.97,
            pattern_length_range=(2, 6),
            loop_trip_mean=8.0,
            function_cost_range=(120.0, 700.0),
            memory=MemoryConfig(working_set_bytes=4 * mib, array_bytes=8 * kib),
            ilp=2.4,
        ),
        "server": WorkloadProfile(
            name="server",
            seed=402,
            functions=32,
            call_probability=0.26,
            predicate_mix=PredicateMix(
                biased=0.50, short_parity=0.22, long_parity=0.08, pattern=0.04, hidden=0.16
            ),
            hard_noise=0.08,
            bias_strength=0.98,
            random_access_fraction=0.45,
            stack_access_fraction=0.15,
            load_density=0.30,
            loop_trip_mean=6.0,
            loop_trip_fixed_fraction=0.4,
            memory=MemoryConfig(
                working_set_bytes=64 * mib, array_bytes=32 * kib, hot_fraction=0.05
            ),
            ilp=2.2,
        ),
        "adversarial": WorkloadProfile(
            name="adversarial",
            seed=403,
            functions=6,
            predicate_mix=PredicateMix(
                biased=0.12, short_parity=0.18, long_parity=0.22, pattern=0.24, hidden=0.24
            ),
            easy_noise=0.03,
            hard_noise=0.25,
            bias_strength=0.60,
            short_lag_range=(4, 12),
            long_lag_range=(15, 48),
            pattern_length_range=(5, 9),
            loop_trip_fixed_fraction=0.1,
            loop_trip_mean=9.0,
            hidden_flip_probability=0.03,
            memory=MemoryConfig(working_set_bytes=8 * mib, array_bytes=8 * kib),
            ilp=2.6,
        ),
    }
