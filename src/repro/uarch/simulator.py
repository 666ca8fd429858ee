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
therefore makes two passes over the trace's columns (``trace.columns()``):

1. a pre-pass takes every branch's direction from the policy's whole
   stream (:meth:`FetchPolicy.stream` — on the batch engine wherever engine
   resolution picks it, exactly as ``measure_accuracy`` does), lays out
   every block's cache accesses in array code and replays L1I/L1D/L2, the
   BTB and the RAS through their C cores, leaving per block its I-cache
   and data stalls and what its terminator costs the front end (override
   bubble, half-width window, BTB-miss penalty, redirect);
2. one timing loop, in C (:func:`repro.native.time_blocks`), runs the
   float fetch/back-end recurrence above over those per-block arrays,
   every operation in the order the reference loop performs it.

Cascading is the one policy whose directions depend on timing: the fetch
gap before a branch picks the component that answers it, and with it
whether the BTB is probed.  Its component streams still come from the
pre-pass; the choice, and its BTB probes, run inside the C timing loop on
the BTB's own state.  ``tests/uarch_reference.py`` keeps the former
per-block loop, which the differential suite checks this one against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import native, obs
from repro.common.errors import ConfigurationError
from repro.uarch.btb import BranchTargetBuffer, ReturnAddressStack
from repro.uarch.caches import MemoryHierarchy, machine_hierarchy
from repro.uarch.config import PAPER_MACHINE, MachineConfig
from repro.uarch.policies import FetchPolicy, PolicyStream
from repro.workloads.trace import BranchKind, ColumnarTrace

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

    def run(self, trace: ColumnarTrace) -> SimulationResult:
        """Simulate ``trace`` start to finish and return cycles/IPC/stats."""
        columns = trace.columns()
        kinds = columns["branch_kind"]
        conditional = np.flatnonzero(kinds == int(BranchKind.CONDITIONAL))
        actual = columns["taken"][conditional]
        stream = self.policy.stream(columns["branch_pc"][conditional], actual)
        stalls = StallBreakdown()
        blocks = self._block_work(columns, stalls)
        mispredictions, overrides = self._terminators(
            columns, conditional, stream, blocks, stalls
        )
        timing = self._time(blocks, stream, actual, stalls)
        if stream.quick is not None:
            mispredictions += timing["gap_wrong"]
            self.policy.record_choices(
                len(conditional), timing["slow_used"], timing["gap_wrong"]
            )
        result = SimulationResult(
            trace=trace.name,
            policy=self.policy.name,
            instructions=int(columns["instructions"].sum()),
            cycles=max(timing["cycles"], 1),
            conditional_branches=len(conditional),
            mispredictions=mispredictions,
            overrides=overrides,
            stalls=stalls,
        )
        if obs.enabled():
            self._publish(result)
        return result

    def _block_work(self, columns: dict, stalls: StallBreakdown) -> dict[str, np.ndarray]:
        """Per block: instructions, I-cache stall cycles, full-width fetch
        cycles, retire cycles (instructions / ILP) and data stall cycles
        (load stalls / MLP).  Replays the caches."""
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
        return {
            "instructions": instructions,
            "icache": icache,
            "fetch_cycles": -(-instructions // config.issue_width),
            "retire": instructions / self.ilp,
            "data": data_stalls,
        }

    def _terminators(
        self,
        columns: dict,
        conditional: np.ndarray,
        stream: PolicyStream,
        blocks: dict[str, np.ndarray],
        stalls: StallBreakdown,
    ) -> tuple[int, int]:
        """Adds to ``blocks`` what each block's terminator costs the front
        end: override ``bubble``, dual-path ``window``, BTB-miss
        ``penalty``, ``flush`` kind, and the BTB ``probe`` the timing loop
        makes when directions wait on timing (with the branch's ``pc`` and
        ``target``).  Replays the RAS and, unless directions wait on
        timing, the BTB.

        Returns the mispredictions and the overrides known before timing.
        """
        kinds = columns["branch_kind"]
        branch_pcs = columns["branch_pc"]
        targets = columns["target"]
        count = len(kinds)
        calls = kinds == int(BranchKind.CALL)
        ras_ops = np.flatnonzero(calls | (kinds == int(BranchKind.RETURN)))
        pushes = calls[ras_ops]
        addresses = np.where(pushes, branch_pcs[ras_ops] + 4, targets[ras_ops])
        predicted = self.ras.replay(pushes, addresses)
        flushes = np.zeros(count, dtype=np.int64)
        flushes[ras_ops[~predicted]] = _RAS_MISS
        bubbles = np.zeros(count, dtype=np.int64)
        windows = np.zeros(count, dtype=np.int64)
        penalties = np.zeros(count, dtype=np.int64)
        probe = np.full(count, native.NO_PROBE, dtype=np.int64)
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
            correct = self.btb.replay(branch_pcs[probes], targets[probes])
            penalties[probes[~correct]] = self.config.btb_miss_penalty
        else:
            # A conditional branch probes through its index in the branch
            # stream, once the timing loop picks its direction.
            probe[probed] = native.ALWAYS_PROBE
            probe[conditional] = np.arange(len(conditional))
        stalls.override_bubble += int(bubbles.sum())
        stalls.btb_miss += int(penalties.sum())
        blocks.update(
            bubble=bubbles,
            window=windows,
            penalty=penalties,
            flush=flushes,
            probe=probe,
            pc=np.ascontiguousarray(branch_pcs, dtype=np.int64),
            target=np.ascontiguousarray(targets, dtype=np.int64),
        )
        return int(np.count_nonzero(flushes == _MISPREDICT)), int(np.count_nonzero(bubbles))

    def _time(
        self,
        blocks: dict[str, np.ndarray],
        stream: PolicyStream,
        actual: np.ndarray,
        stalls: StallBreakdown,
    ) -> dict[str, int]:
        """The timing loop: fetch and back-end cursors, block by block, in C.

        Returns the cycle count and, for a gap-arbitrated policy, how many
        branches the slow component answered (``slow_used``) and how many
        were wrong (``gap_wrong``), with the rest of
        :data:`repro.native.TIMING_FIELDS`.
        """
        config = self.config
        none = np.zeros(0, dtype=bool)
        gapped = stream.quick is not None
        timing = native.time_blocks(
            blocks,
            {
                "quick": np.ascontiguousarray(stream.quick, dtype=bool) if gapped else none,
                "slow": np.ascontiguousarray(stream.taken, dtype=bool) if gapped else none,
                "outcome": np.ascontiguousarray(actual, dtype=bool) if gapped else none,
            },
            {
                "issue_width": config.issue_width,
                "blocks_per_cycle": config.blocks_per_cycle,
                "front_depth": config.front_depth,
                "rob_lead": config.rob_size / self.ilp,  # max cycles fetch may lead
                "btb_miss_penalty": config.btb_miss_penalty,
                "gap_cycles": stream.gap_cycles,
            },
            self.btb,
        )
        stalls.mispredict += timing["mispredict_stall"]
        stalls.ras_miss += timing["ras_stall"]
        stalls.override_bubble += timing["window_stall"]
        stalls.btb_miss += timing["gap_btb_stall"]
        self.btb.stats.lookups += timing["btb_lookups"]
        self.btb.stats.misses += timing["btb_misses"]
        return timing

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
