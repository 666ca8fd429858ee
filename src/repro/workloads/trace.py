"""Dynamic-trace data model.

The workload substrate executes synthetic programs and emits traces at
*fetch-block* granularity: a run of straight-line instructions optionally
terminated by a branch.  This is the granularity the cycle simulator fetches
at, and it keeps hundred-thousand-instruction traces cheap to store and
replay (every experiment replays the same trace across many predictors).

Only conditional branches matter to direction predictors; the accuracy
harness iterates ``Trace.conditional_branches()`` while the cycle simulator
consumes whole blocks (instruction counts, memory addresses, branch kind and
target) as columns (``Trace.columns()``).
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.common.errors import TraceError


class BranchKind(enum.IntEnum):
    """Terminator of a fetch block."""

    NONE = 0  # block ends for capacity reasons (no branch)
    CONDITIONAL = 1
    UNCONDITIONAL = 2
    CALL = 3
    RETURN = 4


@dataclass(frozen=True, slots=True)
class Block:
    """One dynamic fetch block.

    ``loads``/``stores`` are the memory addresses touched by the block, in
    program order; ``pc`` is the address of the first instruction.  For a
    block ending in a branch, ``branch_pc`` is the branch instruction's
    address, ``taken`` its resolved direction and ``target`` the address
    executed next (used both as the BTB's payload and as the next block's
    expected ``pc``).
    """

    pc: int
    instructions: int
    loads: tuple[int, ...] = ()
    stores: tuple[int, ...] = ()
    branch_kind: BranchKind = BranchKind.NONE
    branch_pc: int = 0
    taken: bool = False
    target: int = 0

    def __post_init__(self) -> None:
        if self.instructions < 1:
            raise TraceError(f"block at {self.pc:#x} has no instructions")
        if self.branch_kind != BranchKind.NONE and self.branch_pc == 0:
            raise TraceError(f"block at {self.pc:#x} has a branch without a branch_pc")

    @property
    def has_conditional(self) -> bool:
        """True when the block ends in a conditional branch."""
        return self.branch_kind == BranchKind.CONDITIONAL


@dataclass
class Trace:
    """A replayable dynamic trace: blocks plus summary statistics."""

    name: str
    blocks: list[Block] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    @property
    def instruction_count(self) -> int:
        """Total dynamic instructions in the trace."""
        return sum(block.instructions for block in self.blocks)

    @property
    def conditional_branch_count(self) -> int:
        """Total dynamic conditional branches in the trace."""
        return sum(1 for block in self.blocks if block.has_conditional)

    @property
    def taken_rate(self) -> float:
        """Fraction of conditional branches that are taken."""
        branches = 0
        taken = 0
        for block in self.blocks:
            if block.has_conditional:
                branches += 1
                taken += int(block.taken)
        if branches == 0:
            return 0.0
        return taken / branches

    def conditional_branches(self) -> Iterator[tuple[int, bool]]:
        """Yield (branch_pc, taken) for every conditional branch, in order."""
        for block in self.blocks:
            if block.has_conditional:
                yield block.branch_pc, block.taken

    def branch_arrays(self) -> tuple["np.ndarray", "np.ndarray"]:
        """The conditional-branch stream as ``(pcs, takens)`` arrays.

        The batch engine consumes this form; arrays are cached per trace
        (keyed on block count) so repeated sweeps over the same cached
        trace pay the extraction once.
        """
        import numpy as np

        cached = getattr(self, "_branch_arrays", None)
        if cached is not None and cached[0] == len(self.blocks):
            return cached[1], cached[2]
        pairs = list(self.conditional_branches())
        pcs = np.fromiter((pc for pc, _ in pairs), dtype=np.int64, count=len(pairs))
        takens = np.fromiter((t for _, t in pairs), dtype=bool, count=len(pairs))
        self._branch_arrays = (len(self.blocks), pcs, takens)
        return pcs, takens

    def columns(self) -> dict[str, "np.ndarray"]:
        """The trace as structure-of-arrays columns, exactly those of
        :meth:`repro.workloads.store.ColumnarTrace.columns` (built afresh
        on each call; the cycle simulator reads its blocks this way)."""
        from repro.workloads.io import trace_to_columns  # deferred: io imports this module

        return trace_to_columns(self)

    def static_branch_count(self) -> int:
        """Number of distinct conditional-branch sites in the trace."""
        return len({block.branch_pc for block in self.blocks if block.has_conditional})

    def validate(self) -> None:
        """Check internal consistency: control flow must be continuous.

        Each block must begin where the previous block said execution would
        continue (branch target when taken, fall-through otherwise).
        """
        previous: Block | None = None
        for block in self.blocks:
            if previous is not None and previous.branch_kind != BranchKind.NONE:
                if previous.taken and block.pc != previous.target:
                    raise TraceError(
                        f"discontinuity: taken branch at {previous.branch_pc:#x} "
                        f"targets {previous.target:#x} but next block is {block.pc:#x}"
                    )
            previous = block
