"""The cycle simulator's per-block loop, kept as the reference.

:class:`ReferenceSimulator` runs the loop :class:`repro.uarch.simulator.
CycleSimulator` used before its timing-independent work moved into a
pre-pass: one ``Block`` at a time, with a ``policy.predict``/``update``
call per conditional branch and one ``access_*``/``lookup``/``install``/
``push``/``pop`` call per cache, BTB and RAS operation.  It is the loop as
it was, except that the second-line I-fetch check takes its shift from the
L1I line size instead of a hard-coded 64-byte line.

The differential suite (``tests/test_uarch_differential.py``) and the
engine-speed smoke (``benchmarks/test_engine_speed.py``) compare the
simulator against it: same ``SimulationResult``, same post-run state.
"""

from __future__ import annotations

import math

from repro.uarch.simulator import CycleSimulator, SimulationResult, StallBreakdown
from repro.workloads.trace import BranchKind, ColumnarTrace


class ReferenceSimulator(CycleSimulator):
    """:class:`CycleSimulator` with the per-block reference loop."""

    def run(self, trace: ColumnarTrace) -> SimulationResult:
        """Simulate ``trace`` block by block and return cycles/IPC/stats."""
        config = self.config
        stalls = StallBreakdown()
        next_fetch = 0.0  # next free fetch cycle
        backend_end = float(config.front_depth)  # in-order retirement cursor
        half_width_until = 0.0  # dual-path window
        rob_lead = config.rob_size / self.ilp  # max cycles fetch may lead
        last_branch_fetch_end = 0.0  # for gap-aware (cascading) policies
        gap_aware = hasattr(self.policy, "note_gap")
        # Multi-block fetch group (Section 3.3.1): consecutive blocks share
        # a fetch cycle while the group has slots and width to spare.
        group_end = -1.0
        group_count = 0
        group_instructions = 0
        mispredictions = 0
        overrides = 0
        branches = 0
        instructions = 0
        line_shift = self.hierarchy.l1i.line_shift

        for block in trace.blocks:
            instructions += block.instructions
            # ROB throttle: fetch cannot run arbitrarily ahead of retire.
            if next_fetch < backend_end - rob_lead:
                next_fetch = backend_end - rob_lead

            fetch_start = next_fetch
            # I-cache: charge the block's first line; long blocks touch more.
            icache_stall = self.hierarchy.access_instruction(block.pc)
            last_byte = block.pc + block.instructions * 4 - 1
            if (last_byte >> line_shift) != (block.pc >> line_shift):
                icache_stall += self.hierarchy.access_instruction(last_byte)
            stalls.icache += icache_stall

            width = config.issue_width
            if fetch_start < half_width_until:
                width = max(width // 2, 1)
            # EV8-style multi-block fetch: each block in a group gets a full
            # fetch-block's width (bandwidth scales with blocks_per_cycle),
            # so a block joins the open group when slots remain, it follows
            # immediately (no bubble/redirect in between), it hit the
            # I-cache, and it fits one fetch block by itself.
            same_cycle = (
                config.blocks_per_cycle > 1
                and group_count < config.blocks_per_cycle
                and fetch_start == group_end
                and icache_stall == 0
                and block.instructions <= width
            )
            if same_cycle:
                fetch_end = group_end
                group_count += 1
                group_instructions += block.instructions
            else:
                fetch_cycles = math.ceil(block.instructions / width)
                fetch_end = fetch_start + icache_stall + fetch_cycles
                group_end = fetch_end
                group_count = 1
                group_instructions = block.instructions
            next_fetch = fetch_end

            # Back end: pace retirement by ILP and data stalls.
            data_stall = 0.0
            for address in block.loads:
                data_stall += self.hierarchy.access_data(address)
            for address in block.stores:
                self.hierarchy.access_data(address)  # fills, no retire stall
            data_stall /= config.memory_level_parallelism
            stalls.dcache += int(data_stall)
            exec_ready = fetch_end + config.front_depth
            prev_backend_end = backend_end
            backend_end = (
                max(backend_end, exec_ready) + block.instructions / self.ilp + data_stall
            )

            if block.branch_kind == BranchKind.NONE:
                continue

            # -- branch handling at the block terminator -------------------
            if block.branch_kind == BranchKind.CONDITIONAL:
                branches += 1
                if gap_aware:
                    self.policy.note_gap(int(fetch_end - last_branch_fetch_end))
                last_branch_fetch_end = fetch_end
                prediction = self.policy.predict(block.branch_pc)
                correct = self.policy.update(block.branch_pc, block.taken)
                if prediction.bubble_cycles:
                    overrides += 1
                    next_fetch += prediction.bubble_cycles
                    stalls.override_bubble += prediction.bubble_cycles
                if prediction.half_width_cycles:
                    # A second branch inside an open window cannot fork
                    # again: fetch waits for the window to close first.
                    if fetch_end < half_width_until:
                        stall = half_width_until - fetch_end
                        next_fetch += stall
                        stalls.override_bubble += int(stall)
                    half_width_until = next_fetch + prediction.half_width_cycles
                if prediction.taken:
                    target = self.btb.lookup(block.branch_pc)
                    if target is None or target != block.target:
                        # Redirect waits for decode to compute the target.
                        next_fetch += config.btb_miss_penalty
                        stalls.btb_miss += config.btb_miss_penalty
                    self.btb.install(block.branch_pc, block.target)
                if not correct:
                    mispredictions += 1
                    resolve = max(exec_ready, prev_backend_end) + 1
                    if resolve > next_fetch:
                        stalls.mispredict += int(resolve - next_fetch)
                        next_fetch = resolve
            elif block.branch_kind == BranchKind.CALL:
                self.ras.push(block.branch_pc + 4)
                target = self.btb.lookup(block.branch_pc)
                if target is None or target != block.target:
                    next_fetch += config.btb_miss_penalty
                    stalls.btb_miss += config.btb_miss_penalty
                self.btb.install(block.branch_pc, block.target)
            elif block.branch_kind == BranchKind.RETURN:
                predicted = self.ras.pop()
                if predicted != block.target:
                    # RAS miss: treated like a mispredicted branch.
                    resolve = max(exec_ready, prev_backend_end) + 1
                    if resolve > next_fetch:
                        stalls.ras_miss += int(resolve - next_fetch)
                        next_fetch = resolve
            else:  # unconditional direct jump
                target = self.btb.lookup(block.branch_pc)
                if target is None or target != block.target:
                    next_fetch += config.btb_miss_penalty
                    stalls.btb_miss += config.btb_miss_penalty
                self.btb.install(block.branch_pc, block.target)

        cycles = int(math.ceil(max(next_fetch, backend_end)))
        return SimulationResult(
            trace=trace.name,
            policy=self.policy.name,
            instructions=instructions,
            cycles=max(cycles, 1),
            conditional_branches=branches,
            mispredictions=mispredictions,
            overrides=overrides,
            stalls=stalls,
        )
