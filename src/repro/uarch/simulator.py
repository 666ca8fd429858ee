"""Cycle-level processor model: trace + fetch policy -> IPC.

A SimpleScalar stand-in built for the effects this paper measures.  The
front end is modelled cycle by cycle — every fetch block pays for I-cache
misses, fetch-width limits, BTB misses, override bubbles and misprediction
redirects — because all of the paper's phenomena live there.  The back end
is an interval model: an in-order retirement cursor paced by the workload's
exploitable ILP, data-cache stalls (with a memory-level-parallelism
factor), and a ROB window that throttles fetch when the back end falls too
far behind.  DESIGN.md records this substitution for the authors' full
out-of-order SimpleScalar/Alpha.

Event accounting per block:

    fetch_start  = next free fetch slot (after bubbles/redirects)
    fetch_end    = fetch_start + icache stalls + ceil(instrs / width)
    exec_ready   = fetch_end + front_depth          (decode/rename/issue)
    backend_end  = max(backend_end, exec_ready) + instrs/min(ilp, width)
                   + dcache stalls / MLP
    mispredict   -> next fetch_start = max(exec_ready, prev backend_end)+1
                    (the branch must reach execute before redirecting)

IPC = instructions / cycles at the last block's completion.

Predict, then simulate
----------------------

Most of what happens to a block does not depend on when it is fetched.
Every policy's component predictors train on every conditional branch in
trace order; the caches, the BTB and the RAS see their operations in trace
order; a block's size fixes its fetch and retire work.  :meth:`CycleSimulator.run`
therefore makes two passes over the trace's columns (``trace.columns()``,
no ``Block`` objects):

1. a pre-pass takes every branch's direction from the policy's whole
   stream (:meth:`FetchPolicy.stream` — on the batch engine wherever engine
   resolution picks it, exactly as ``measure_accuracy`` does) and replays
   L1I/L1D/L2, the BTB and the RAS as plain ints, leaving per block its
   I-cache and data stalls and what its terminator costs the front end
   (override bubble, half-width window, BTB-miss penalty, redirect);
2. one timing loop runs the float fetch/back-end recurrence above over
   those per-block values.

Cascading is the one policy whose directions depend on timing: the fetch
gap before a branch picks the component that answers it, and with it
whether the BTB is probed.  Its component streams still come from the
pre-pass; the choice, and its BTB probes, stay in the loop.
``tests/uarch_reference.py`` keeps the former per-block loop, which the
differential suite checks this one against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.common.errors import ConfigurationError
from repro.uarch.btb import BranchTargetBuffer, ReturnAddressStack
from repro.uarch.caches import MemoryHierarchy, machine_hierarchy
from repro.uarch.config import PAPER_MACHINE, MachineConfig
from repro.uarch.policies import FetchPolicy, PolicyStream
from repro.workloads.trace import BranchKind, Trace

#: What a block's terminator makes fetch wait for once it reaches execute.
_MISPREDICT = 1
_RAS_MISS = 2


@dataclass
class StallBreakdown:
    """Where the cycles went (beyond ideal single-cycle fetch flow)."""

    icache: int = 0
    dcache: int = 0
    mispredict: int = 0
    override_bubble: int = 0
    btb_miss: int = 0
    ras_miss: int = 0


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    trace: str
    policy: str
    instructions: int
    cycles: int
    conditional_branches: int
    mispredictions: int
    overrides: int
    stalls: StallBreakdown = field(default_factory=StallBreakdown)

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the whole run."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def misprediction_rate(self) -> float:
        """Fraction of conditional branches the policy got wrong."""
        if self.conditional_branches == 0:
            return 0.0
        return self.mispredictions / self.conditional_branches


class CycleSimulator:
    """Runs one trace through the machine under a given fetch policy."""

    def __init__(
        self,
        policy: FetchPolicy,
        config: MachineConfig = PAPER_MACHINE,
        ilp: float = 2.8,
        hierarchy: MemoryHierarchy | None = None,
    ) -> None:
        if ilp <= 0:
            raise ConfigurationError("ilp must be positive")
        self.policy = policy
        self.config = config
        self.ilp = min(ilp, float(config.issue_width))
        self.hierarchy = hierarchy or machine_hierarchy(config)
        self.btb = BranchTargetBuffer(entries=config.btb_entries, ways=config.btb_ways)
        self.ras = ReturnAddressStack(depth=config.ras_depth)

    def run(self, trace: Trace) -> SimulationResult:
        """Simulate ``trace`` start to finish and return cycles/IPC/stats."""
        columns = trace.columns()
        kinds = columns["branch_kind"]
        conditional = np.flatnonzero(kinds == int(BranchKind.CONDITIONAL))
        actual = columns["taken"][conditional]
        stream = self.policy.stream(columns["branch_pc"][conditional], actual)
        stalls = StallBreakdown()
        work = self._block_work(columns, stalls)
        events, mispredictions, overrides = self._terminators(
            columns, conditional, stream, stalls
        )
        cycles, cascade = self._time(*work, events, stream, actual, stalls)
        if cascade is not None:
            slow_used, wrong = cascade
            mispredictions += wrong
            self.policy.record_choices(len(conditional), slow_used, wrong)
        result = SimulationResult(
            trace=trace.name,
            policy=self.policy.name,
            instructions=int(columns["instructions"].sum()),
            cycles=max(cycles, 1),
            conditional_branches=len(conditional),
            mispredictions=mispredictions,
            overrides=overrides,
            stalls=stalls,
        )
        if obs.enabled():
            self._publish(result)
        return result

    def _block_work(self, columns: dict, stalls: StallBreakdown) -> tuple[list, ...]:
        """Per block, as plain lists: instructions, I-cache stall cycles,
        full-width fetch cycles, retire cycles (instructions / ILP) and
        data stall cycles (load stalls / MLP).  Replays the caches."""
        config = self.config
        pcs = columns["pc"]
        instructions = columns["instructions"].astype(np.int64)
        load_offsets = columns["load_offsets"]
        store_offsets = columns["store_offsets"]
        # A block accesses, in order: its first line, its last line when
        # that is another one, its loads, its stores.
        shift = self.hierarchy.l1i.line_shift
        last_bytes = pcs + instructions * 4 - 1
        second_line = (last_bytes >> shift) != (pcs >> shift)
        fetches = 1 + second_line.astype(np.int64)
        loads = np.diff(load_offsets)
        sizes = fetches + loads + np.diff(store_offsets)
        starts = np.cumsum(sizes) - sizes
        seconds = starts[second_line] + 1
        addresses = np.empty(int(sizes.sum()), dtype=np.int64)
        addresses[starts] = pcs
        addresses[seconds] = last_bytes[second_line]
        data = np.ones(len(addresses), dtype=bool)
        data[starts] = data[seconds] = False
        _scatter(addresses, columns["loads"], load_offsets, starts + fetches)
        _scatter(addresses, columns["stores"], store_offsets, starts + fetches + loads)
        totals = np.concatenate(([0], np.cumsum(self.hierarchy.replay(addresses, data))))
        icache = totals[starts + fetches] - totals[starts]
        load_stalls = totals[starts + fetches + loads] - totals[starts + fetches]
        data_stalls = load_stalls / config.memory_level_parallelism
        stalls.icache += int(icache.sum())
        stalls.dcache += int(data_stalls.astype(np.int64).sum())
        return (
            instructions.tolist(),
            icache.tolist(),
            (-(-instructions // config.issue_width)).tolist(),
            (instructions / self.ilp).tolist(),
            data_stalls.tolist(),
        )

    def _terminators(
        self,
        columns: dict,
        conditional: np.ndarray,
        stream: PolicyStream,
        stalls: StallBreakdown,
    ) -> tuple[list, int, int]:
        """Per block, what its terminator costs the front end: None, or
        ``(bubble, window, penalty, flush, probe)``.  Replays the RAS and,
        unless directions wait on timing (``probe`` set), the BTB.

        Returns the events, the mispredictions and the overrides known
        before timing.
        """
        kinds = columns["branch_kind"]
        branch_pcs = columns["branch_pc"]
        targets = columns["target"]
        blocks = len(kinds)
        calls = kinds == int(BranchKind.CALL)
        ras_ops = np.flatnonzero(calls | (kinds == int(BranchKind.RETURN)))
        pushes = calls[ras_ops]
        addresses = np.where(pushes, branch_pcs[ras_ops] + 4, targets[ras_ops])
        predicted = np.array(self.ras.replay(pushes.tolist(), addresses.tolist()), dtype=bool)
        flushes = np.zeros(blocks, dtype=np.int64)
        flushes[ras_ops[~predicted]] = _RAS_MISS
        bubbles = np.zeros(blocks, dtype=np.int64)
        windows = np.zeros(blocks, dtype=np.int64)
        penalties = np.zeros(blocks, dtype=np.int64)
        # The BTB is probed by calls, jumps and branches predicted taken.
        probed = calls | (kinds == int(BranchKind.UNCONDITIONAL))
        if stream.quick is None:
            probed[conditional] = stream.taken
            flushes[conditional[stream.taken != columns["taken"][conditional]]] = _MISPREDICT
            if stream.bubble_cycles is not None:
                bubbles[conditional] = stream.bubble_cycles
            if stream.half_width_cycles is not None:
                windows[conditional] = stream.half_width_cycles
            probes = np.flatnonzero(probed)
            correct = self.btb.replay(branch_pcs[probes].tolist(), targets[probes].tolist())
            penalties[probes[~np.array(correct, dtype=bool)]] = self.config.btb_miss_penalty
        stalls.override_bubble += int(bubbles.sum())
        stalls.btb_miss += int(penalties.sum())
        events: list = [None] * blocks
        active = np.flatnonzero(bubbles | windows | penalties | flushes)
        for block, bubble, window, penalty, flush in zip(
            active.tolist(),
            bubbles[active].tolist(),
            windows[active].tolist(),
            penalties[active].tolist(),
            flushes[active].tolist(),
        ):
            events[block] = (bubble, window, penalty, flush, None)
        if stream.quick is not None:
            # Each conditional branch gets its index in the branch stream;
            # a call or jump gets -1 (always probes the BTB).
            index = np.full(blocks, -1, dtype=np.int64)
            index[conditional] = np.arange(len(conditional))
            dynamic = np.flatnonzero(probed | (index >= 0))
            for block, pc, target, branch in zip(
                dynamic.tolist(),
                branch_pcs[dynamic].tolist(),
                targets[dynamic].tolist(),
                index[dynamic].tolist(),
            ):
                events[block] = (0, 0, 0, 0, (pc, target, branch))
        return (
            events,
            int(np.count_nonzero(flushes == _MISPREDICT)),
            int(np.count_nonzero(bubbles)),
        )

    def _time(
        self,
        instructions: list[int],
        icache: list[int],
        fetch_cycles: list[int],
        retire: list[float],
        data: list[float],
        events: list,
        stream: PolicyStream,
        actual: np.ndarray,
        stalls: StallBreakdown,
    ) -> tuple[int, tuple[int, int] | None]:
        """The timing loop: fetch and back-end cursors, block by block.

        Returns the cycle count and, for a gap-arbitrated policy, how many
        branches the slow component answered and how many were wrong.
        """
        config = self.config
        issue_width = config.issue_width
        half_width = max(issue_width // 2, 1)
        blocks_per_cycle = config.blocks_per_cycle
        grouped = blocks_per_cycle > 1
        front_depth = config.front_depth
        btb_miss_penalty = config.btb_miss_penalty
        rob_lead = config.rob_size / self.ilp  # max cycles fetch may lead
        next_fetch = 0.0  # next free fetch cycle
        backend_end = float(front_depth)  # in-order retirement cursor
        half_width_until = 0.0  # dual-path window
        # Multi-block fetch group (Section 3.3.1): consecutive blocks share
        # a fetch cycle while the group has slots and width to spare.
        group_end = -1.0
        group_count = 0
        mispredict_stall = 0
        ras_stall = 0
        window_stall = 0
        # Gap-arbitrated pair (cascading) only.
        gapped = stream.quick is not None
        gap_cycles = stream.gap_cycles
        quick = stream.quick.tolist() if gapped else []
        slow = stream.taken.tolist() if gapped else []
        outcomes = actual.tolist() if gapped else []
        btb_lookup = self.btb.lookup
        btb_install = self.btb.install
        last_branch_fetch_end = 0.0
        slow_used = 0
        gap_wrong = 0
        gap_btb_stall = 0

        for n, icache_stall, cycles, retire_cycles, data_stall, event in zip(
            instructions, icache, fetch_cycles, retire, data, events
        ):
            # ROB throttle: fetch cannot run arbitrarily ahead of retire.
            if next_fetch < backend_end - rob_lead:
                next_fetch = backend_end - rob_lead
            fetch_start = next_fetch
            width = issue_width
            if fetch_start < half_width_until:
                width = half_width
                cycles = -(-n // half_width)
            # EV8-style multi-block fetch: a block joins the open group when
            # slots remain, it follows immediately, it hit the I-cache and
            # it fits one fetch block by itself.
            if (
                grouped
                and group_count < blocks_per_cycle
                and fetch_start == group_end
                and icache_stall == 0
                and n <= width
            ):
                fetch_end = group_end
                group_count += 1
            else:
                fetch_end = fetch_start + icache_stall + cycles
                group_end = fetch_end
                group_count = 1
            next_fetch = fetch_end
            exec_ready = fetch_end + front_depth
            prev_backend_end = backend_end
            backend_end = (
                exec_ready if exec_ready > backend_end else backend_end
            ) + retire_cycles + data_stall
            if event is None:
                continue

            # -- the block's terminator ------------------------------------
            bubble, window, penalty, flush, probe = event
            if probe is not None:
                pc, target, branch = probe
                predicted = True
                if branch >= 0:
                    use_slow = int(fetch_end - last_branch_fetch_end) >= gap_cycles
                    last_branch_fetch_end = fetch_end
                    if use_slow:
                        slow_used += 1
                        predicted = slow[branch]
                    else:
                        predicted = quick[branch]
                    if predicted != outcomes[branch]:
                        gap_wrong += 1
                        flush = _MISPREDICT
                if predicted:
                    if btb_lookup(pc) != target:
                        penalty = btb_miss_penalty
                        gap_btb_stall += penalty
                    btb_install(pc, target)
            if bubble:
                next_fetch += bubble
            if window:
                # A second branch inside an open window cannot fork again:
                # fetch waits for the window to close first.
                if fetch_end < half_width_until:
                    stall = half_width_until - fetch_end
                    next_fetch += stall
                    window_stall += int(stall)
                half_width_until = next_fetch + window
            if penalty:
                # Redirect waits for decode to compute the target.
                next_fetch += penalty
            if flush:
                # The branch must reach execute before redirecting fetch.
                resolve = (
                    prev_backend_end if prev_backend_end > exec_ready else exec_ready
                ) + 1
                if resolve > next_fetch:
                    if flush == _MISPREDICT:
                        mispredict_stall += int(resolve - next_fetch)
                    else:
                        ras_stall += int(resolve - next_fetch)
                    next_fetch = resolve

        stalls.mispredict += mispredict_stall
        stalls.ras_miss += ras_stall
        stalls.override_bubble += window_stall
        stalls.btb_miss += gap_btb_stall
        cycles = int(math.ceil(max(next_fetch, backend_end)))
        return cycles, ((slow_used, gap_wrong) if gapped else None)

    def _publish(self, result: SimulationResult) -> None:
        """Account this run's cycles — bubbles broken down by cause — into
        the default metrics registry (once per run, never per block)."""
        registry = obs.registry()
        registry.counter("sim.runs").inc()
        registry.counter("sim.instructions").inc(result.instructions)
        registry.counter("sim.cycles").inc(result.cycles)
        registry.counter("sim.branches").inc(result.conditional_branches)
        registry.counter("sim.mispredictions").inc(result.mispredictions)
        registry.counter("sim.overrides").inc(result.overrides)
        stalls = result.stalls
        for cause, amount in (
            ("icache", stalls.icache),
            ("dcache", stalls.dcache),
            ("mispredict", stalls.mispredict),
            ("override_bubble", stalls.override_bubble),
            ("btb_miss", stalls.btb_miss),
            ("ras_miss", stalls.ras_miss),
        ):
            registry.counter(f"sim.stall.{cause}").inc(amount)
        overriding = getattr(self.policy, "overriding", None)
        if overriding is not None and hasattr(overriding, "record_stats"):
            overriding.record_stats(registry)


def _scatter(out: np.ndarray, values: np.ndarray, offsets: np.ndarray, firsts: np.ndarray) -> None:
    """Place CSR ``values`` (block ``b`` owns ``values[offsets[b]:offsets[b+1]]``)
    into ``out`` so that block ``b``'s run starts at ``firsts[b]``."""
    owners = np.repeat(np.arange(len(firsts)), np.diff(offsets))
    out[firsts[owners] + np.arange(len(owners)) - offsets[:-1][owners]] = values[: len(owners)]
