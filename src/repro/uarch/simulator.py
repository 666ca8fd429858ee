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
trace order, whatever the timing.  :meth:`CycleSimulator.run` therefore
takes every branch's direction from the policy's whole stream first
(:meth:`FetchPolicy.stream` — on the batch engine wherever engine
resolution picks it, exactly as ``measure_accuracy`` does), then walks the
trace's columns (``trace.columns()``) once, in C
(:func:`repro.native.simulate`).  Per block, that pass sends its I-fetch
lines, loads and stores through L1I/L1D and the shared L2, runs the float
fetch/back-end recurrence above, and handles its terminator: RAS push or
pop, the branch's direction from the stream, override bubble, dual-path
window, BTB lookup and install.  Every operation happens in the order the
per-block reference loop performs it, on the state arrays the caches, the
BTB and the RAS own.

Cascading is the one policy whose directions depend on timing: the fetch
gap before a branch picks the component that answers it, and with it
whether the BTB is probed.  Both component streams come from the policy;
the pass makes the choice.  ``tests/uarch_reference.py`` keeps the former
per-block loop, which the differential suite checks this one against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro import native, obs
from repro.common.errors import ConfigurationError
from repro.uarch.btb import BranchTargetBuffer, ReturnAddressStack
from repro.uarch.caches import MemoryHierarchy, machine_hierarchy
from repro.uarch.config import PAPER_MACHINE, MachineConfig
from repro.uarch.policies import FetchPolicy, PolicyStream
from repro.workloads.trace import ColumnarTrace


@dataclass
class StallBreakdown:
    """Where the cycles went (beyond ideal single-cycle fetch flow)."""

    icache: int = 0
    dcache: int = 0
    mispredict: int = 0
    override_bubble: int = 0
    btb_miss: int = 0
    ras_miss: int = 0


#: The causes :class:`StallBreakdown` counts, in its field order.
STALL_CAUSES = tuple(cause.name for cause in fields(StallBreakdown))


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
        pcs, takens = trace.branch_arrays()
        stream = self.policy.stream(pcs, takens)
        counts = native.simulate(
            trace.columns(),
            self._branches(stream),
            self._machine(stream),
            self.hierarchy,
            self.btb,
            self.ras,
        )
        for name in ("l1i", "l1d", "l2"):
            stats = getattr(self.hierarchy, name).stats
            stats.accesses += counts[f"{name}_accesses"]
            stats.misses += counts[f"{name}_misses"]
        self.btb.stats.lookups += counts["btb_lookups"]
        self.btb.stats.misses += counts["btb_misses"]
        if stream.quick is not None:
            self.policy.record_choices(len(pcs), counts["slow_used"], counts["mispredictions"])
        result = SimulationResult(
            trace=trace.name,
            policy=self.policy.name,
            instructions=counts["instructions"],
            cycles=max(counts["cycles"], 1),
            conditional_branches=len(pcs),
            mispredictions=counts["mispredictions"],
            overrides=counts["overrides"],
            stalls=StallBreakdown(**{cause: counts[cause] for cause in STALL_CAUSES}),
        )
        if obs.enabled():
            self._publish(result)
        return result

    @staticmethod
    def _branches(stream: PolicyStream) -> dict[str, np.ndarray]:
        """The per-branch arrays of :func:`repro.native.simulate`: a policy
        with no gap choice passes its directions as the quick ones too, and
        zeros for a cost it does not have."""
        directions = np.ascontiguousarray(stream.taken, dtype=bool)
        none = np.zeros(len(directions), dtype=np.int64)

        def costs(cycles):
            return none if cycles is None else np.ascontiguousarray(cycles, dtype=np.int64)

        quick = directions if stream.quick is None else stream.quick
        return {
            "directions": directions,
            "quick": np.ascontiguousarray(quick, dtype=bool),
            "bubbles": costs(stream.bubble_cycles),
            "windows": costs(stream.half_width_cycles),
        }

    def _machine(self, stream: PolicyStream) -> dict:
        """The scalar parameters of :func:`repro.native.simulate`."""
        config = self.config
        return {
            "gap_cycles": stream.gap_cycles,
            "issue_width": config.issue_width,
            "blocks_per_cycle": config.blocks_per_cycle,
            "front_depth": config.front_depth,
            "ilp": self.ilp,
            "rob_lead": config.rob_size / self.ilp,  # max cycles fetch may lead
            "memory_level_parallelism": config.memory_level_parallelism,
            "btb_miss_penalty": config.btb_miss_penalty,
        }

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
        for cause in STALL_CAUSES:
            registry.counter(f"sim.stall.{cause}").inc(getattr(result.stalls, cause))
        overriding = getattr(self.policy, "overriding", None)
        if overriding is not None and hasattr(overriding, "record_stats"):
            overriding.record_stats(registry)

