"""Structured synthetic-program model.

Programs are trees of structured control-flow nodes — straight-line code,
if/else, do-while loops, and calls — the way a compiler sees structured
source.  Building programs as trees (rather than arbitrary CFGs) keeps
generation simple and guarantees well-formed control flow, while still
producing everything branch predictors care about: nested loops with
characteristic trip counts, correlated if-cascades, call/return structure,
and a realistic static code layout for the instruction cache.

Code layout: every node is assigned a static address range by
:func:`layout_program`, functions placed sequentially in a code region.
Conditional branches follow the compiler convention the paper mentions
(Section 3.3.3): the *likely* path is laid out as the fall-through, so most
conditional branches are not taken, and loop back-edges are taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import ExactStream
from repro.workloads.predicates import Predicate

INSTRUCTION_BYTES = 4


@dataclass(frozen=True)
class MemOp:
    """A memory access slot in straight-line code.

    ``kind`` selects the address stream: ``stack`` (current frame, high
    locality), ``stride`` (array walk, prefetch-friendly but capacity-bound)
    or ``random`` (pointer chasing over the working set).
    """

    kind: str
    is_store: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("stack", "stride", "random"):
            raise ConfigurationError(f"unknown memory op kind {self.kind!r}")


@dataclass
class TripSampler:
    """Samples loop trip counts (>= 1) per loop entry.

    kinds: ``fixed`` (always ``mean`` — loop-predictor food), ``geometric``
    (mean ``mean``), ``uniform`` (on [low, high]).
    """

    kind: str = "geometric"
    mean: float = 8.0
    low: int = 1
    high: int = 16

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "geometric", "uniform"):
            raise ConfigurationError(f"unknown trip sampler kind {self.kind!r}")
        if self.kind == "fixed" and self.mean < 1:
            raise ConfigurationError("fixed trip count must be >= 1")
        if self.kind == "geometric" and self.mean < 1:
            raise ConfigurationError("geometric mean must be >= 1")
        if self.kind == "uniform" and not 1 <= self.low <= self.high:
            raise ConfigurationError("uniform trip range must satisfy 1 <= low <= high")

    def sample(self, rng: ExactStream | np.random.Generator) -> int:
        """Draw one trip count (>= 1)."""
        if self.kind == "fixed":
            return int(self.mean)
        if self.kind == "geometric":
            # numpy's geometric is >= 1 with mean 1/p.
            p = min(1.0, 1.0 / self.mean)
            return int(rng.geometric(p))
        return int(rng.integers(self.low, self.high + 1))


class Node:
    """Base class for structured program nodes (layout fields filled by
    :func:`layout_program`)."""

    address: int = 0  # first instruction address
    size_bytes: int = 0  # total laid-out size


@dataclass
class StraightCode(Node):
    """A run of non-branch instructions with memory ops and hidden-state
    random-walk steps (``hidden_flips``: (bit index, flip probability))."""

    instructions: int
    mem_ops: tuple[MemOp, ...] = ()
    hidden_flips: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.instructions < 1:
            raise ConfigurationError("straight-line code needs at least one instruction")
        if len(self.mem_ops) > self.instructions:
            raise ConfigurationError("more memory ops than instructions")


@dataclass
class If(Node):
    """if/else with the likely path as fall-through.

    The conditional branch is *taken* to skip to the else side (or past the
    whole if when there is no else); it is not taken into the then side.
    ``predicate`` gives the probability-of-then; the branch outcome is the
    negation (taken == predicate false).
    """

    predicate: Predicate
    then_body: list[Node]
    else_body: list[Node] = field(default_factory=list)
    branch_address: int = 0  # filled by layout
    join_address: int = 0
    taken_target: int = 0

    def __post_init__(self) -> None:
        if not self.then_body:
            raise ConfigurationError("if needs a non-empty then body")


@dataclass
class Loop(Node):
    """do-while loop: the body runs ``trips`` times; the back-edge branch is
    taken ``trips - 1`` times, then falls through once."""

    body: list[Node]
    trips: TripSampler = field(default_factory=TripSampler)
    back_edge_address: int = 0  # filled by layout
    head_address: int = 0
    exit_address: int = 0

    def __post_init__(self) -> None:
        if not self.body:
            raise ConfigurationError("loop needs a non-empty body")


@dataclass
class Call(Node):
    """Direct call to another function (resolved by index into the program's
    function list, so functions can call forward)."""

    callee_index: int
    call_address: int = 0  # filled by layout
    return_address: int = 0


@dataclass
class Function:
    """A named function: a body and, after layout, an entry address."""

    name: str
    body: list[Node]
    entry_address: int = 0
    return_site_address: int = 0

    def __post_init__(self) -> None:
        if not self.body:
            raise ConfigurationError(f"function {self.name!r} has an empty body")


@dataclass
class Program:
    """A laid-out synthetic program.

    ``functions[0]`` is ``main``; execution repeats main until the
    instruction budget is exhausted (steady-state behaviour, mirroring the
    paper's skip-warmup/run-long methodology).
    """

    name: str
    functions: list[Function]
    code_base: int = 0x0040_0000
    code_size_bytes: int = 0

    def __post_init__(self) -> None:
        if not self.functions:
            raise ConfigurationError("a program needs at least one function")

    @property
    def main(self) -> Function:
        """The entry function (index 0)."""
        return self.functions[0]

    def static_conditional_branches(self) -> list[int]:
        """Addresses of all conditional-branch sites (Ifs and loop
        back-edges), for footprint statistics."""
        addresses: list[int] = []

        def walk(nodes: list[Node]) -> None:
            for node in nodes:
                if isinstance(node, If):
                    addresses.append(node.branch_address)
                    walk(node.then_body)
                    walk(node.else_body)
                elif isinstance(node, Loop):
                    walk(node.body)
                    addresses.append(node.back_edge_address)
                # StraightCode and Call contribute no conditional branches.

        for function in self.functions:
            walk(function.body)
        return addresses


def _layout_nodes(nodes: list[Node], cursor: int) -> int:
    """Assign addresses to ``nodes`` starting at ``cursor``; return the next
    free address.  Mirrors a simple code generator's layout."""
    for node in nodes:
        node.address = cursor
        if isinstance(node, StraightCode):
            cursor += node.instructions * INSTRUCTION_BYTES
        elif isinstance(node, If):
            node.branch_address = cursor
            cursor += INSTRUCTION_BYTES  # the conditional branch
            cursor = _layout_nodes(node.then_body, cursor)
            if node.else_body:
                cursor += INSTRUCTION_BYTES  # jump over else at end of then
                else_start = cursor
                cursor = _layout_nodes(node.else_body, cursor)
                node.join_address = cursor
                # Taken target of the conditional: start of the else side.
                node.taken_target = else_start
            else:
                node.join_address = cursor
                node.taken_target = cursor
        elif isinstance(node, Loop):
            node.head_address = cursor
            cursor = _layout_nodes(node.body, cursor)
            node.back_edge_address = cursor
            cursor += INSTRUCTION_BYTES  # the back-edge conditional
            node.exit_address = cursor
        elif isinstance(node, Call):
            node.call_address = cursor
            cursor += INSTRUCTION_BYTES  # the call instruction
            node.return_address = cursor
        else:  # pragma: no cover - defensive
            raise ConfigurationError(f"unknown node type {type(node).__name__}")
        node.size_bytes = cursor - node.address
    return cursor


def layout_program(program: Program) -> Program:
    """Assign static addresses to every node of ``program`` (in place)."""
    cursor = program.code_base
    for function in program.functions:
        function.entry_address = cursor
        cursor = _layout_nodes(function.body, cursor)
        function.return_site_address = cursor
        cursor += INSTRUCTION_BYTES  # the return instruction
        cursor += 12 * INSTRUCTION_BYTES  # inter-function padding (prologue)
    program.code_size_bytes = cursor - program.code_base
    return program
