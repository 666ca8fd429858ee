"""Differential suite: the cycle simulator against its per-block reference.

:class:`repro.uarch.simulator.CycleSimulator` takes its branch directions
from whole-stream predictor runs and replays caches, BTB and RAS before its
timing loop; ``tests/uarch_reference.py`` keeps the per-block loop it
replaced, driving every structure one call at a time.  Both must produce
the same ``SimulationResult`` and leave the same state behind: every
component predictor's ``state()``, the policy's own statistics, each
cache's statistics and contents, the BTB's and the RAS's.

Two sources of traces: the twelve SPEC stand-ins (the Figure 7 families in
both modes, a cascading and a dual-path pair, two-block fetch), and Hypothesis-generated block traces on a tiny machine —
2-way L1s, a 1- to 8-way L2, an 8-entry 1- to 4-way BTB, a depth-2 RAS —
under all four fetch policies, where conflicts, evictions, RAS overflow
and dual-path windows are common.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cascading import CascadingPredictor
from repro.core.dualpath import DualPathPolicy
from repro.core.overriding import OverridingPredictor
from repro.harness.figures import FIGURES
from repro.harness.sweep import make_policy
from repro.predictors import registry
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.engines import resolve_engine
from repro.predictors.gshare import GsharePredictor
from repro.uarch.caches import Cache, MemoryHierarchy
from repro.uarch.config import MachineConfig
from repro.uarch.policies import (
    CascadingFetchPolicy,
    DualPathFetchPolicy,
    OverridingPolicy,
    SingleCyclePolicy,
)
from repro.uarch.simulator import CycleSimulator
from repro.workloads.spec2000 import get_profile, spec2000_names, spec2000_trace
from repro.workloads.trace import Block, BranchKind
from tests.trace_blocks import trace_from_blocks
from tests.uarch_reference import ReferenceSimulator

#: The four Figure 7 families, from its one definition.
IPC_FAMILIES = FIGURES["figure7"].grids[0].families


def _components(policy) -> tuple[list, object]:
    """A policy's component predictors and its own statistics."""
    if isinstance(policy, SingleCyclePolicy):
        return [policy.predictor], None
    if isinstance(policy, OverridingPolicy):
        overriding = policy.overriding
        return [overriding.quick, overriding.slow], (overriding.stats, policy.override_bubbles)
    if isinstance(policy, DualPathFetchPolicy):
        return [policy.dualpath.predictor], None
    cascading = policy.cascading
    return [cascading.quick, cascading.slow], cascading.stats


def cache_contents(cache: Cache) -> tuple:
    """A cache's statistics and resident tags per set, least recent first."""
    fills = cache.fill.tolist()
    return cache.stats, {s: cache.tags[s, :f].tolist() for s, f in enumerate(fills) if f}


def post_run_state(simulator: CycleSimulator) -> dict:
    """Everything a run leaves behind, in comparable form."""
    predictors, policy_stats = _components(simulator.policy)
    hierarchy = simulator.hierarchy
    btb, ras = simulator.btb, simulator.ras
    return {
        "predictors": [
            {name: np.asarray(value).tolist() for name, value in p.state().items()}
            for p in predictors
        ],
        "policy": policy_stats,
        "caches": [cache_contents(c) for c in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)],
        # Entries in LRU order, least recent first.
        "btb": (
            btb.stats,
            [
                list(zip(btb.tags[s, :f].tolist(), btb.targets[s, :f].tolist()))
                for s, f in enumerate(btb.fill.tolist())
            ],
        ),
        "ras": (ras.overflows, ras.stack[: len(ras)].tolist()),
    }


def assert_same_run(make_simulator, trace, runs: int = 1) -> None:
    """Run fresh reference and simulator instances ``runs`` times each (a
    later run starts from the state the earlier one left); demand
    equality."""
    reference = make_simulator(ReferenceSimulator)
    simulator = make_simulator(CycleSimulator)
    for _ in range(runs):
        expected = reference.run(trace)
        assert simulator.run(trace) == expected
        assert post_run_state(simulator) == post_run_state(reference)


#: Policies beyond Figure 7's, on the paper machine: a cascading pair whose
#: 2-cycle threshold splits the stand-ins' fetch gaps (many equal it) and a
#: dual-path predictor.
PAIRS = {
    "cascading": lambda: CascadingFetchPolicy(
        CascadingPredictor(registry.build("2bcgskew", 64 * 1024), slow_latency=2)
    ),
    "dualpath": lambda: DualPathFetchPolicy(
        DualPathPolicy(registry.build("perceptron", 64 * 1024), latency=3)
    ),
}


@pytest.mark.parametrize("stand_in", spec2000_names())
def test_stand_ins_match_reference(stand_in):
    """Every stand-in: the four Figure 7 families, ideal and overriding;
    the cascading and dual-path pairs; two-block fetch."""
    trace = spec2000_trace(stand_in, instructions=5_000)
    ilp = get_profile(stand_in).ilp
    for family in IPC_FAMILIES:
        for mode in ("ideal", "overriding"):
            assert_same_run(
                lambda cls: cls(make_policy(family, 64 * 1024, mode), ilp=ilp), trace
            )
    for make in PAIRS.values():
        assert_same_run(lambda cls: cls(make(), ilp=ilp), trace)
    two_blocks = MachineConfig(blocks_per_cycle=2)
    assert_same_run(
        lambda cls: cls(make_policy("gshare_fast", 64 * 1024, "ideal"), two_blocks, ilp=ilp),
        trace,
    )


def test_second_run_starts_from_warm_state():
    """A simulator run twice keeps its trained predictors, caches, BTB and
    RAS between runs, as the reference does."""
    trace = spec2000_trace("gcc", instructions=5_000)
    reference = ReferenceSimulator(make_policy("perceptron", 64 * 1024, "overriding"))
    simulator = CycleSimulator(make_policy("perceptron", 64 * 1024, "overriding"))
    for _ in range(2):
        assert simulator.run(trace) == reference.run(trace)
    assert post_run_state(simulator) == post_run_state(reference)


# -- generated traces on a tiny machine ------------------------------------------


class UnbatchedGshare(GsharePredictor):
    """A subclass: no batch kernel models it, so streams replay it scalar."""


def _policy(kind: str, latency: int = 3):
    if kind == "single":
        return SingleCyclePolicy(GsharePredictor(64))
    if kind == "unbatched":
        return SingleCyclePolicy(UnbatchedGshare(64))
    if kind == "overriding":
        return OverridingPolicy(
            OverridingPredictor(
                GsharePredictor(256), slow_latency=latency, quick=BimodalPredictor(16)
            )
        )
    if kind == "dualpath":
        return DualPathFetchPolicy(DualPathPolicy(GsharePredictor(64), latency=latency))
    return CascadingFetchPolicy(
        CascadingPredictor(GsharePredictor(256), slow_latency=latency, quick=BimodalPredictor(16))
    )


POLICIES = ("single", "unbatched", "overriding", "dualpath", "cascading")


def _tiny_hierarchy(l2_ways: int) -> MemoryHierarchy:
    return MemoryHierarchy(
        l1i=Cache(256, 32, ways=2),
        l1d=Cache(256, 32, ways=2),
        l2=Cache(1024, 64, ways=l2_ways),
        l2_hit_cycles=5,
        memory_cycles=40,
    )


#: Few sites, mostly conditional, so predictors train and disagree.
_KINDS = [BranchKind.CONDITIONAL] * 3 + [
    BranchKind.NONE,
    BranchKind.UNCONDITIONAL,
    BranchKind.CALL,
    BranchKind.RETURN,
]

_raw_block = st.tuples(
    st.integers(0, 7),  # pc slot
    st.integers(1, 12),  # instructions
    st.lists(st.integers(0, 4095), max_size=3),  # loads
    st.lists(st.integers(0, 4095), max_size=2),  # stores
    st.sampled_from(_KINDS),
    st.booleans(),  # taken
    st.integers(0, 7),  # target slot
    st.booleans(),  # a return goes back to its call
)


def _blocks(raw: list[tuple]) -> list[Block]:
    """Blocks from drawn tuples; a return marked so targets the address
    its latest unmatched call pushed, so the RAS sees hits and misses."""
    calls: list[int] = []
    blocks = []
    for slot, n, loads, stores, kind, taken, target_slot, returns in raw:
        pc = 0x1000 + slot * 0x24
        branch_pc = pc + (n - 1) * 4 if kind != BranchKind.NONE else 0
        target = 0x1000 + target_slot * 0x24
        if kind == BranchKind.CALL:
            calls.append(branch_pc + 4)
        elif kind == BranchKind.RETURN and returns and calls:
            target = calls.pop()
        blocks.append(
            Block(
                pc=pc,
                instructions=n,
                loads=tuple(loads),
                stores=tuple(stores),
                branch_kind=kind,
                branch_pc=branch_pc,
                taken=taken if kind == BranchKind.CONDITIONAL else kind != BranchKind.NONE,
                target=target,
            )
        )
    return blocks


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=25, deadline=None)
@given(
    raw=st.lists(_raw_block, min_size=1, max_size=120),
    blocks_per_cycle=st.sampled_from([1, 2]),
    engine=st.sampled_from(["auto", "scalar"]),
    ilp=st.sampled_from([1.5, 3.0, 8.0]),
    l2_ways=st.sampled_from([1, 2, 4, 8]),
    btb_ways=st.sampled_from([1, 2, 4]),
    runs=st.sampled_from([1, 2]),
    latency=st.sampled_from([2, 3, 12, 16]),
)
def test_generated_traces_match_reference(
    raw, policy, blocks_per_cycle, engine, ilp, l2_ways, btb_ways, runs, latency
):
    """Every policy (dual-path windows, cascading's gap arbitration and
    its BTB probes in the timing loop), one or two blocks per cycle, a
    direct-mapped to 8-way L2, a direct-mapped to 4-way BTB, and a second
    run from the state the first left.  Fetch gaps between branches on
    this machine are at least ~10 cycles, mostly 10-25, so a slow latency
    of 12 or 16 puts cascading's gap threshold among them: both components
    answer, and some gaps equal the threshold."""
    trace = trace_from_blocks("generated", _blocks(raw))
    config = MachineConfig(
        btb_entries=8,
        btb_ways=btb_ways,
        ras_depth=2,
        blocks_per_cycle=blocks_per_cycle,
        rob_size=16,
    )
    with mock.patch.dict(os.environ, {"REPRO_ENGINE": engine}):
        assert_same_run(
            lambda cls: cls(
                _policy(policy, latency),
                config=config,
                ilp=ilp,
                hierarchy=_tiny_hierarchy(l2_ways),
            ),
            trace,
            runs,
        )


def test_unbatched_predictor_resolves_scalar():
    """The generated suite's kernel-less predictor really takes the scalar
    replay, and the others the batch engine."""
    assert resolve_engine(UnbatchedGshare(64), "auto") == "scalar"
    assert resolve_engine(GsharePredictor(64), "auto") == "batch"


@settings(max_examples=40, deadline=None)
@given(
    addresses=st.lists(st.integers(0, 1 << 12), max_size=200),
    ways=st.sampled_from([1, 2, 4, 8, 16]),
)
def test_cache_replay_matches_access(addresses, ways):
    """``Cache.replay`` is ``Cache.access`` over a whole stream."""
    one, many = Cache(512, 32, ways=ways), Cache(512, 32, ways=ways)
    for chunk in (addresses[: len(addresses) // 2], addresses[len(addresses) // 2 :]):
        hits = many.replay(np.array(chunk, dtype=np.int64))
        assert hits.tolist() == [one.access(a) for a in chunk]
    assert cache_contents(many) == cache_contents(one)
