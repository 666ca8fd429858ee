"""Synthetic-program executor: turns a laid-out :class:`Program` into a
dynamic :class:`ColumnarTrace`.

The executor walks the structured node tree exactly as the hardware would
see the compiled program run: straight-line runs accumulate into fetch
blocks, conditional branches resolve their predicates against the live
program state, loops iterate their sampled trip counts, and calls push and
pop a real stack (so return addresses and stack memory behave).  Each
finished block is appended field by field to typed ``array`` buffers, one
per trace column, and the trace adopts those buffers as numpy columns
without a copy; no per-block object is ever built.

Memory addresses are generated per access from three stream kinds:

* ``stack`` — small offsets in the current frame (hot in L1);
* ``stride`` — a per-slot cursor walking an array region, wrapping at the
  workload's array size (capacity behaviour in L2);
* ``random`` — uniform over the workload's working set (the cache-hostile
  pointer chase).

All randomness comes from seeded streams, and every piece of state that
changes during a run lives in the executor and its :class:`ProgramState`,
never in the program: executing the same laid-out program with the same
seed, memory config and budget reproduces the identical trace, however
often it has run before.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import ExactStream, derive
from repro.workloads.cfg import (
    INSTRUCTION_BYTES,
    Call,
    If,
    Loop,
    MemOp,
    Node,
    Program,
    StraightCode,
)
from repro.workloads.predicates import ProgramState
from repro.workloads.trace import COLUMN_ORDER, BranchKind, ColumnarTrace

STACK_BASE = 0x7FFF_0000
FRAME_BYTES = 512
HEAP_BASE = 0x1000_0000
MAX_CALL_DEPTH = 64


@dataclass(frozen=True)
class MemoryConfig:
    """Data-memory personality of a workload.

    Random ("pointer-chasing") accesses are not uniform over the working
    set: real heaps have hot structures.  ``hot_fraction`` of random
    accesses fall in a hot region of ``hot_bytes``; the rest roam the full
    working set (these are the ones that miss in L2 when the working set
    exceeds it).
    """

    working_set_bytes: int = 1 << 20  # region random accesses roam over
    array_bytes: int = 1 << 13  # length of each strided array
    stride_bytes: int = 4  # strided-access step
    hot_bytes: int = 8 * 1024  # hot subset of the working set
    hot_fraction: float = 0.95  # share of random accesses that stay hot

    def __post_init__(self) -> None:
        if self.working_set_bytes < 4096:
            raise ConfigurationError("working set must be at least 4KB")
        if self.array_bytes < 64:
            raise ConfigurationError("array size must be at least 64B")
        if self.stride_bytes < 1:
            raise ConfigurationError("stride must be positive")
        if self.hot_bytes > self.working_set_bytes:
            raise ConfigurationError("hot region cannot exceed the working set")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigurationError("hot fraction must be in [0, 1]")


class _BudgetExhausted(Exception):
    """Internal: raised to unwind execution when the instruction budget hits."""


class _Columns:
    """The trace being written: one typed buffer per column (``taken`` as
    0/1 bytes), plus the open block's start address and size."""

    __slots__ = (*COLUMN_ORDER, "block_pc", "block_instructions")

    def __init__(self, pc: int) -> None:
        self.pc = array("q")
        self.instructions = array("i")
        self.branch_kind = array("b")
        self.branch_pc = array("q")
        self.taken = array("B")
        self.target = array("q")
        self.loads = array("q")
        self.stores = array("q")
        self.load_offsets = array("q", [0])
        self.store_offsets = array("q", [0])
        self.block_pc = pc
        self.block_instructions = 0

    def close(
        self, branch_pc: int, kind: BranchKind, taken: bool, target: int, next_pc: int
    ) -> None:
        """End the open block with its terminator and open one at ``next_pc``."""
        self.pc.append(self.block_pc)
        self.instructions.append(self.block_instructions)
        self.branch_kind.append(kind)
        self.branch_pc.append(branch_pc)
        self.taken.append(taken)
        self.target.append(target)
        self.load_offsets.append(len(self.loads))
        self.store_offsets.append(len(self.stores))
        self.block_pc = next_pc
        self.block_instructions = 0

    def trace(self, name: str) -> ColumnarTrace:
        """The finished trace, its columns adopting the buffers."""
        buffers = {key: getattr(self, key) for key in COLUMN_ORDER}
        return ColumnarTrace(
            name,
            **{
                key: np.frombuffer(buffer, dtype=buffer.typecode)
                for key, buffer in buffers.items()
            },
        )


class ProgramExecutor:
    """Executes a program for a given instruction budget, emitting a trace."""

    def __init__(
        self,
        program: Program,
        seed: int,
        memory: MemoryConfig | None = None,
        hidden_bits: int = 8,
    ) -> None:
        if program.code_size_bytes == 0:
            raise ConfigurationError(
                f"program {program.name!r} has not been laid out; call layout_program first"
            )
        self.program = program
        self.memory = memory or MemoryConfig()
        self.rng = ExactStream(derive(seed, "exec", program.name))
        self.state = ProgramState(self.rng, hidden_bits=hidden_bits)
        self._stride_cursors: dict[tuple[int, int], int] = {}
        self._stack_depth = 0
        self._budget = 0
        self._executed = 0
        self._columns = _Columns(program.main.entry_address)

    # -- address streams -----------------------------------------------------

    def _address_for(self, op: MemOp, node_key: int, slot: int) -> int:
        if op.kind == "stack":
            frame = STACK_BASE - self._stack_depth * FRAME_BYTES
            return frame - int(self.rng.integers(0, FRAME_BYTES // 8)) * 8
        if op.kind == "stride":
            key = (node_key, slot)
            cursor = self._stride_cursors.get(key)
            if cursor is None:
                # Each slot owns a region within the working set.
                region = (hash(key) % max(self.memory.working_set_bytes // self.memory.array_bytes, 1))
                cursor = HEAP_BASE + region * self.memory.array_bytes
                self._stride_cursors[key] = cursor
            base = HEAP_BASE + (
                (cursor - HEAP_BASE) // self.memory.array_bytes
            ) * self.memory.array_bytes
            next_cursor = cursor + self.memory.stride_bytes
            if next_cursor >= base + self.memory.array_bytes:
                next_cursor = base
            self._stride_cursors[(node_key, slot)] = next_cursor
            return cursor
        # random: pointer chase, mostly within the hot region.
        if self.rng.random() < self.memory.hot_fraction:
            span = self.memory.hot_bytes
        else:
            span = self.memory.working_set_bytes
        offset = int(self.rng.integers(0, span // 8)) * 8
        return HEAP_BASE + offset

    # -- block emission --------------------------------------------------------

    def _charge(self, instructions: int) -> None:
        self._executed += instructions
        self._columns.block_instructions += instructions
        if self._executed >= self._budget:
            raise _BudgetExhausted

    # -- node execution ----------------------------------------------------------

    def _run_straight(self, node: StraightCode) -> None:
        self._charge(node.instructions)
        node_key = node.address
        columns = self._columns
        for slot, op in enumerate(node.mem_ops):
            address = self._address_for(op, node_key, slot)
            if op.is_store:
                columns.stores.append(address)
            else:
                columns.loads.append(address)
        for bit, probability in node.hidden_flips:
            self.state.flip_hidden(bit, probability)

    def _run_if(self, node: If) -> None:
        want_then = node.predicate.evaluate(self.state)
        taken = not want_then  # taken jumps over the then side
        self._charge(1)  # the conditional branch itself
        self.state.record_outcome(taken)
        next_pc = node.taken_target if taken else node.branch_address + INSTRUCTION_BYTES
        self._columns.close(
            node.branch_address, BranchKind.CONDITIONAL, taken, node.taken_target, next_pc
        )
        if want_then:
            self._run_body(node.then_body)
            if node.else_body:
                # Unconditional jump over the else side.
                self._charge(1)
                jump_pc = node.taken_target - INSTRUCTION_BYTES
                self._columns.close(
                    jump_pc, BranchKind.UNCONDITIONAL, True, node.join_address, node.join_address
                )
        elif node.else_body:
            self._run_body(node.else_body)

    def _run_loop(self, node: Loop) -> None:
        trips = node.trips.sample(self.rng)
        for trip in range(trips):
            self._run_body(node.body)
            continuing = trip < trips - 1
            self._charge(1)  # back-edge conditional
            self.state.record_outcome(continuing)
            next_pc = node.head_address if continuing else node.exit_address
            self._columns.close(
                node.back_edge_address,
                BranchKind.CONDITIONAL,
                continuing,
                node.head_address,
                next_pc,
            )

    def _run_call(self, node: Call) -> None:
        callee = self.program.functions[node.callee_index]
        self._charge(1)  # the call
        self._columns.close(
            node.call_address, BranchKind.CALL, True, callee.entry_address, callee.entry_address
        )
        if self._stack_depth >= MAX_CALL_DEPTH:
            raise ConfigurationError(
                f"call depth exceeded {MAX_CALL_DEPTH}; the program generator "
                "must not produce call cycles"
            )
        self._stack_depth += 1
        self._run_body(callee.body)
        self._stack_depth -= 1
        self._charge(1)  # the return
        self._columns.close(
            callee.return_site_address,
            BranchKind.RETURN,
            True,
            node.return_address,
            node.return_address,
        )

    def _run_body(self, nodes: list[Node]) -> None:
        for node in nodes:
            if isinstance(node, StraightCode):
                self._run_straight(node)
            elif isinstance(node, If):
                self._run_if(node)
            elif isinstance(node, Loop):
                self._run_loop(node)
            elif isinstance(node, Call):
                self._run_call(node)
            else:  # pragma: no cover - defensive
                raise ConfigurationError(f"unknown node type {type(node).__name__}")

    # -- entry point ------------------------------------------------------------

    def run(self, instruction_budget: int) -> ColumnarTrace:
        """Execute until ``instruction_budget`` instructions have retired.

        The program's ``main`` repeats indefinitely (steady state); the last
        partial block is flushed when the budget trips.
        """
        if instruction_budget < 1:
            raise ConfigurationError("instruction budget must be positive")
        self._budget = instruction_budget
        self._executed = 0
        self._columns = columns = _Columns(self.program.main.entry_address)
        try:
            while True:
                self._run_body(self.program.main.body)
                # Loop back to main's entry: model as an unconditional jump.
                self._charge(1)
                self._columns.close(
                    self.program.main.return_site_address,
                    BranchKind.UNCONDITIONAL,
                    True,
                    self.program.main.entry_address,
                    self.program.main.entry_address,
                )
        except _BudgetExhausted:
            if columns.block_instructions > 0:
                columns.close(0, BranchKind.NONE, False, 0, 0)
        return columns.trace(self.program.name)
