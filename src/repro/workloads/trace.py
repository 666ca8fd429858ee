"""Dynamic-trace data model: one trace type, held as columns.

The workload substrate executes synthetic programs and emits traces at
*fetch-block* granularity: a run of straight-line instructions optionally
terminated by a branch.  This is the granularity the cycle simulator fetches
at, and it keeps hundred-thousand-instruction traces cheap to store and
replay (every experiment replays the same trace across many predictors).

A trace is a :class:`ColumnarTrace`: structure-of-arrays numpy columns, one
entry per block, with each block's memory addresses flattened CSR-style
(:data:`COLUMN_ORDER`).  The generator writes these columns directly, the
trace store and :mod:`repro.workloads.io` save and load them as they are,
and every trace is read-only, so a trace the in-process cache shares cannot
be changed by any consumer.

Only conditional branches matter to direction predictors; the accuracy
harness reads ``branch_arrays()`` (batch) or ``conditional_branches()``
(scalar), while the cycle simulator reads whole blocks as ``columns()``.
:class:`Block` is one block as an object; the lazy ``ColumnarTrace.blocks``
view builds them only for code that walks blocks one at a time.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

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


#: Column names in canonical (checksum and file) order.  Block *i* owns
#: ``loads[load_offsets[i]:load_offsets[i + 1]]`` (stores alike).
COLUMN_ORDER = (
    "pc",
    "instructions",
    "branch_kind",
    "branch_pc",
    "taken",
    "target",
    "loads",
    "stores",
    "load_offsets",
    "store_offsets",
)


def _frozen(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``: a view of an array
    already of that dtype, a converted copy otherwise."""
    column = np.asarray(values, dtype=dtype).view()
    column.flags.writeable = False
    return column


class ColumnarTrace:
    """A replayable trace: one read-only numpy column per block field.

    Construction adopts the arrays (no copy when they already have the
    column dtypes) and makes the same checks a :class:`Block` makes, on
    every block at once.
    """

    def __init__(
        self,
        name: str,
        pc: np.ndarray,
        instructions: np.ndarray,
        branch_kind: np.ndarray,
        branch_pc: np.ndarray,
        taken: np.ndarray,
        target: np.ndarray,
        loads: np.ndarray,
        stores: np.ndarray,
        load_offsets: np.ndarray,
        store_offsets: np.ndarray,
    ) -> None:
        self.name = name
        self.pc = _frozen(pc, np.int64)
        self.instructions = _frozen(instructions, np.int32)
        self.branch_kind = _frozen(branch_kind, np.int8)
        self.branch_pc = _frozen(branch_pc, np.int64)
        self.taken = _frozen(taken, np.bool_)
        self.target = _frozen(target, np.int64)
        self.loads = _frozen(loads, np.int64)
        self.stores = _frozen(stores, np.int64)
        self.load_offsets = _frozen(load_offsets, np.int64)
        self.store_offsets = _frozen(store_offsets, np.int64)
        self._branches: tuple[np.ndarray, np.ndarray] | None = None
        self._blocks: list[Block] | None = None
        empty = np.flatnonzero(self.instructions < 1)
        if empty.size:
            raise TraceError(f"block at {int(self.pc[empty[0]]):#x} has no instructions")
        unnamed = np.flatnonzero(
            (self.branch_pc == 0) & (self.branch_kind != int(BranchKind.NONE))
        )
        if unnamed.size:
            raise TraceError(
                f"block at {int(self.pc[unnamed[0]]):#x} has a branch without a branch_pc"
            )

    def columns(self) -> dict[str, np.ndarray]:
        """The column set, in :data:`COLUMN_ORDER`."""
        return {key: getattr(self, key) for key in COLUMN_ORDER}

    def __len__(self) -> int:
        return len(self.pc)

    @property
    def blocks(self) -> list[Block]:
        """Lazily built ``Block`` view, for code that walks blocks one at a
        time (the cycle simulator reads :meth:`columns`)."""
        if self._blocks is None:
            self._blocks = blocks_from_columns(self.columns())
        return self._blocks

    @property
    def instruction_count(self) -> int:
        """Total dynamic instructions in the trace."""
        return int(self.instructions.sum())

    def branch_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The conditional-branch stream as ``(pcs, takens)`` arrays —
        exactly what the batch engine consumes, one mask away from the
        columns (computed once per trace)."""
        if self._branches is None:
            conditional = self.branch_kind == int(BranchKind.CONDITIONAL)
            self._branches = (
                _frozen(self.branch_pc[conditional], np.int64),
                _frozen(self.taken[conditional], np.bool_),
            )
        return self._branches

    @property
    def conditional_branch_count(self) -> int:
        """Total dynamic conditional branches in the trace."""
        return len(self.branch_arrays()[0])

    @property
    def taken_rate(self) -> float:
        """Fraction of conditional branches that are taken."""
        pcs, takens = self.branch_arrays()
        if len(pcs) == 0:
            return 0.0
        return int(np.count_nonzero(takens)) / len(pcs)

    def conditional_branches(self) -> Iterator[tuple[int, bool]]:
        """Yield ``(branch_pc, taken)`` per conditional branch, in order,
        as Python scalars (the scalar engine's input)."""
        pcs, takens = self.branch_arrays()
        yield from zip(pcs.tolist(), takens.tolist())

    def static_branch_count(self) -> int:
        """Number of distinct conditional-branch sites in the trace."""
        return int(np.unique(self.branch_arrays()[0]).size)

    def validate(self) -> None:
        """Check control-flow continuity: after a taken branch, the next
        block begins at the branch's target."""
        if len(self.pc) < 2:
            return
        branchy = (self.branch_kind[:-1] != int(BranchKind.NONE)) & self.taken[:-1]
        expected = self.target[:-1][branchy]
        actual = self.pc[1:][branchy]
        bad = np.flatnonzero(expected != actual)
        if bad.size:
            i = int(np.flatnonzero(branchy)[bad[0]])
            raise TraceError(
                f"discontinuity: taken branch at {int(self.branch_pc[i]):#x} "
                f"targets {int(self.target[i]):#x} but next block is "
                f"{int(self.pc[i + 1]):#x}"
            )


def blocks_from_columns(columns: dict[str, np.ndarray]) -> list[Block]:
    """``Block`` objects from a column set (plain Python ints and bools)."""
    pcs = columns["pc"].tolist()
    instructions = columns["instructions"].tolist()
    kinds = columns["branch_kind"].tolist()
    branch_pcs = columns["branch_pc"].tolist()
    takens = columns["taken"].tolist()
    targets = columns["target"].tolist()
    loads = columns["loads"].tolist()
    stores = columns["stores"].tolist()
    load_offsets = columns["load_offsets"].tolist()
    store_offsets = columns["store_offsets"].tolist()
    return [
        Block(
            pc=pcs[i],
            instructions=instructions[i],
            loads=tuple(loads[load_offsets[i] : load_offsets[i + 1]]),
            stores=tuple(stores[store_offsets[i] : store_offsets[i + 1]]),
            branch_kind=BranchKind(kinds[i]),
            branch_pc=branch_pcs[i],
            taken=bool(takens[i]),
            target=targets[i],
        )
        for i in range(len(pcs))
    ]
