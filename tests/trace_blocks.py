"""Traces written block by block, for tests that spell out their blocks.

The generator writes a trace's columns directly.  Tests that describe a
handful of :class:`Block` objects by hand, or draw them with Hypothesis,
turn them into the same :class:`ColumnarTrace` with
:func:`trace_from_blocks`; the trace's ``blocks`` view gives them back.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.workloads.trace import Block, ColumnarTrace


def _offsets(groups: list[tuple[int, ...]]) -> np.ndarray:
    """CSR offsets of ``groups``: group *i* spans ``[offsets[i], offsets[i + 1])``."""
    offsets = np.zeros(len(groups) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(group) for group in groups])
    return offsets


def trace_from_blocks(name: str, blocks: list[Block]) -> ColumnarTrace:
    """The trace whose ``blocks`` view is ``blocks``."""
    loads = [block.loads for block in blocks]
    stores = [block.stores for block in blocks]
    return ColumnarTrace(
        name,
        pc=[block.pc for block in blocks],
        instructions=[block.instructions for block in blocks],
        branch_kind=[int(block.branch_kind) for block in blocks],
        branch_pc=[block.branch_pc for block in blocks],
        taken=[block.taken for block in blocks],
        target=[block.target for block in blocks],
        loads=list(chain.from_iterable(loads)),
        stores=list(chain.from_iterable(stores)),
        load_offsets=_offsets(loads),
        store_offsets=_offsets(stores),
    )
