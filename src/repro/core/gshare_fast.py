"""gshare.fast — the paper's pipelined single-cycle branch predictor.

Organization (Section 3.1, Figure 4):

* A large PHT of ``2**n`` two-bit counters whose raw read latency is ``L``
  cycles at the paper's 8 FO4 clock.
* The read is *pipelined*: a line of ``2**b`` candidate counters is fetched
  starting ``L`` cycles before the prediction is needed, addressed by the
  **older** portion of the global history — bits that are already known when
  the fetch starts.
* At prediction time, a single-cycle select forms the low ``b`` index bits
  from the lower 9 branch-address bits XOR-folded with the **newest**
  history bits (the ones produced while the line was in flight, tracked by
  the Branch Present / New History Bit latches of the predictor pipeline).

Index function (the functional model used on branch traces):

    stale   = max(L, b)                    # branches of line-address staleness
    high    = (H >> stale) & mask(n - b)   # line address: old history only
    low     = fold9(pc, b) ^ (H & mask(b)) # single-cycle select: PC + newest
    index   = (high << b) | low

With ``L <= b`` every history bit participates (ages [0, b) in the select,
ages [stale, stale + n - b) in the line address with stale == b).  With
``L > b`` — very large PHTs — the line address is up to ``L - b`` branches
staler than ideal, the same stale-history effect the EV8 design reports as
having minimal accuracy impact.  The accuracy cost of gshare.fast relative
to plain gshare is structural either way: only ~9 PC bits (folded to ``b``)
disambiguate branches that share history, where gshare XORs the PC across
the whole index.

This module is the *functional* model: exact predictions, no cycle clock.
The cycle-accurate predictor pipeline with the latch protocol, checkpointed
buffers and misprediction recovery is :mod:`repro.core.pipeline_model`; a
test proves the two produce identical predictions on branch-per-cycle
traces.

Non-speculative PHT update (Section 3.2) is modelled by an update-delay
queue: counter training is applied only after ``update_delay`` subsequent
branches have been predicted, reproducing the paper's "update the table
slowly" policy (their measurement: a 64-branch delay moves a 256KB budget
from 4.03% to 4.07% mispredictions).
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import fold, log2_exact, mask
from repro.common.counters import CounterTable
from repro.common.errors import ConfigurationError
from repro.common.history import HistoryRegister
from repro.core.delayed_update import DelayedUpdateQueue
from repro.predictors.base import BranchPredictor
from repro.timing.fo4 import PAPER_CLOCK, ClockModel
from repro.timing.sram import pht_array

#: Number of low branch-address bits fed to the select stage (Figure 4).
PC_SELECT_BITS = 9
#: The large PHT is built from this many column-interleaved banks read in
#: parallel, so a line fetch sees the access time of one bank — the same
#: banking CACTI applies to the paper's other large predictors (Table 2's
#: per-bank latencies).
PHT_BANKS = 4
#: Smallest / largest supported PHT-buffer index widths.
MIN_BUFFER_BITS = 1
MAX_BUFFER_BITS = 10


def pht_latency_cycles(entries: int, clock: ClockModel = PAPER_CLOCK) -> int:
    """Read latency of a banked PHT of ``entries`` counters (SRAM model)."""
    return pht_array(max(entries // PHT_BANKS, 8)).access_cycles(clock)


def default_buffer_bits(pht_latency: int, index_bits: int) -> int:
    """Default log2 of the PHT-buffer size.

    Large enough to absorb one new history bit per cycle of PHT latency
    (buffer of ``2**L`` entries, Section 3.3.1), at least the paper's
    8-entry buffer, capped both by hardware reason (MAX_BUFFER_BITS) and by
    the index width itself.
    """
    bits = max(pht_latency, 3)
    return max(MIN_BUFFER_BITS, min(bits, MAX_BUFFER_BITS, index_bits - 1))


def multi_branch_buffer_entries(pht_latency: int, branches_per_block: int) -> int:
    """PHT-buffer size for a multiple-branch-prediction front end.

    Section 3.3.1: predictions for consecutive branches are already laid
    out close together in the PHT buffer, so predicting up to ``p``
    branches per block only requires enlarging the buffer: with a
    ``k``-cycle PHT latency the buffer holds ``2**k * p`` entries — the
    paper's example being 8 branches per fetch block at latency 3 needing
    at least a 64-entry buffer.
    """
    if pht_latency < 1:
        raise ConfigurationError(f"PHT latency must be >= 1, got {pht_latency}")
    if branches_per_block < 1:
        raise ConfigurationError(
            f"branches per block must be >= 1, got {branches_per_block}"
        )
    return (1 << pht_latency) * branches_per_block


class GshareFastPredictor(BranchPredictor):
    """Functional model of the pipelined gshare.fast predictor."""

    name = "gshare_fast"

    def __init__(
        self,
        entries: int,
        pht_latency: int | None = None,
        buffer_bits: int | None = None,
        update_delay: int = 0,
        clock: ClockModel = PAPER_CLOCK,
    ) -> None:
        super().__init__()
        self.index_bits = log2_exact(entries)
        if self.index_bits < 2:
            raise ConfigurationError("gshare.fast needs a PHT of at least 4 entries")
        if pht_latency is None:
            pht_latency = pht_latency_cycles(entries, clock)
        if pht_latency < 1:
            raise ConfigurationError(f"PHT latency must be >= 1 cycle, got {pht_latency}")
        if buffer_bits is None:
            buffer_bits = default_buffer_bits(pht_latency, self.index_bits)
        if not MIN_BUFFER_BITS <= buffer_bits <= MAX_BUFFER_BITS:
            raise ConfigurationError(
                f"buffer_bits must be in [{MIN_BUFFER_BITS}, {MAX_BUFFER_BITS}], "
                f"got {buffer_bits}"
            )
        if buffer_bits >= self.index_bits:
            raise ConfigurationError(
                f"buffer_bits {buffer_bits} must be smaller than index width "
                f"{self.index_bits}"
            )
        if update_delay < 0:
            raise ConfigurationError(f"update_delay must be >= 0, got {update_delay}")
        self.pht_latency = pht_latency
        self.buffer_bits = buffer_bits
        self.staleness = max(pht_latency, buffer_bits)
        self.update_delay = update_delay
        # History length: the maximum, log2 of the PHT entry count (§4.1.4),
        # plus the staleness window so stale high bits are still real history.
        self.history = HistoryRegister(self.index_bits + self.staleness)
        self.table = CounterTable(entries, bits=2)
        self._deferred_updates = DelayedUpdateQueue(update_delay, self.table.update)

    @property
    def storage_bits(self) -> int:
        """Hardware state consumed by the predictor, in bits."""
        buffer_bits = (1 << self.buffer_bits) * 2  # prefetched counter line
        # Checkpoint buffers (one per pipeline stage, Section 3.2) are
        # recovery state, counted like the paper counts predictor state: the
        # dominant term is the PHT itself.
        return self.table.storage_bits + self.history.length + buffer_bits

    def tables(self) -> dict[str, CounterTable]:
        """Named counter tables (checkpoint/diff tooling)."""
        return {"pht": self.table}

    def state(self) -> dict[str, np.ndarray]:
        """PHT, history, stats and the deferred PHT updates (diff tooling)."""
        pending = np.array(self._deferred_updates.snapshot(), dtype=np.int64)
        return {**super().state(), "pending": pending.reshape(-1, 2)}

    def index(self, pc: int) -> int:
        """The full PHT index for ``pc`` under the current history."""
        history = self.history.value
        high = (history >> self.staleness) & mask(self.index_bits - self.buffer_bits)
        pc_bits = fold((pc >> 2) & mask(PC_SELECT_BITS), PC_SELECT_BITS, self.buffer_bits)
        low = (pc_bits ^ history) & mask(self.buffer_bits)
        return (high << self.buffer_bits) | low

    def line_address(self, pc: int) -> int:
        """Which PHT line the pipelined fetch would bring in for ``pc``."""
        return self.index(pc) >> self.buffer_bits

    def _predict(self, pc: int) -> tuple[bool, object]:
        index = self.index(pc)
        return self.table.predict(index), index

    def _update(self, pc: int, taken: bool, predicted: bool, context: object) -> None:
        self._deferred_updates.push(context, taken)
        self.history.push(taken)

    def flush_updates(self) -> None:
        """Apply all deferred PHT updates immediately (end-of-trace drain)."""
        self._deferred_updates.flush()


def gshare_fast_from_config(config) -> GshareFastPredictor:
    """gshare.fast from a sized configuration."""
    return GshareFastPredictor(
        entries=config.entries,
        pht_latency=config.pht_latency,
        buffer_bits=config.buffer_bits,
        update_delay=config.update_delay,
    )


def build_gshare_fast(
    budget_bytes: int,
    update_delay: int = 0,
    clock: ClockModel = PAPER_CLOCK,
) -> GshareFastPredictor:
    """Size a gshare.fast for ``budget_bytes``: the PHT fills the budget and
    the PHT latency comes from the SRAM delay model."""
    from repro.predictors.sizing import size_gshare_fast

    config = size_gshare_fast(budget_bytes, update_delay=update_delay)
    return GshareFastPredictor(
        entries=config.entries, update_delay=config.update_delay, clock=clock
    )


def _register() -> None:
    """Enroll gshare.fast in the declarative family registry."""
    from repro.predictors.registry import FamilySpec, register
    from repro.predictors.sizing import GshareFastConfig, size_gshare_fast

    register(
        FamilySpec(
            name="gshare_fast",
            config_type=GshareFastConfig,
            sizer=size_gshare_fast,
            builder=gshare_fast_from_config,
            predictor_type=GshareFastPredictor,
            batch_kernel="gshare_fast",
            single_cycle=True,
        )
    )


_register()
