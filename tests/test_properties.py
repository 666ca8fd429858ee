"""Cross-cutting property-based tests (hypothesis) over all predictors.

Invariants every predictor must satisfy on *any* branch stream:

* the predict/update protocol never corrupts internal state;
* stats add up (predictions = correct + mispredictions);
* predictions are deterministic functions of the visible state (predict is
  repeatable via peek);
* a long constant-direction suffix is eventually predicted correctly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gshare_fast import GshareFastPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.bimode import BiModePredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.gskew import TwoBcGskewPredictor
from repro.predictors.local import LocalPredictor
from repro.predictors.loop import LoopPredictor
from repro.predictors.multicomponent import MultiComponentPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.tournament import TournamentPredictor
from tests.trace_blocks import trace_from_blocks


def build_all():
    return [
        BimodalPredictor(128),
        GsharePredictor(512),
        BiModePredictor(256),
        TwoBcGskewPredictor(256),
        LocalPredictor(history_entries=64, history_length=6),
        TournamentPredictor(
            global_entries=256,
            local_histories=64,
            local_history_length=6,
            local_pht_entries=64,
            chooser_entries=256,
        ),
        PerceptronPredictor(32, global_history=8, local_history=4, local_history_entries=64),
        LoopPredictor(64),
        GshareFastPredictor(entries=512, pht_latency=3),
        MultiComponentPredictor(
            [BimodalPredictor(128), GsharePredictor(256)], selector_entries=128
        ),
    ]


branch_streams = st.lists(
    st.tuples(
        st.sampled_from([0x1000, 0x1004, 0x2000, 0x2040, 0x3330]),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=25, deadline=None)
@given(stream=branch_streams)
def test_protocol_and_stats_hold_on_any_stream(stream):
    for predictor in build_all():
        correct = 0
        for pc, taken in stream:
            predictor.predict(pc)
            if predictor.update(pc, taken):
                correct += 1
        assert predictor.stats.predictions == len(stream)
        assert predictor.stats.mispredictions == len(stream) - correct
        assert 0.0 <= predictor.stats.misprediction_rate <= 1.0


@settings(max_examples=15, deadline=None)
@given(stream=branch_streams)
def test_peek_matches_subsequent_predict(stream):
    for predictor in build_all():
        for pc, taken in stream:
            peeked = predictor.peek(pc)
            predicted = predictor.predict(pc)
            assert peeked == predicted
            predictor.update(pc, taken)


@settings(max_examples=10, deadline=None)
@given(prefix=branch_streams, direction=st.booleans())
def test_constant_suffix_is_learned(prefix, direction):
    """After arbitrary history, 40 constant outcomes at one site must end
    with correct predictions (every predictor converges on a constant)."""
    for predictor in build_all():
        for pc, taken in prefix:
            predictor.predict(pc)
            predictor.update(pc, taken)
        last_correct = 0
        for i in range(40):
            predictor.predict(0x5550)
            if predictor.update(0x5550, direction):
                last_correct = i
        assert last_correct >= 35  # correct near the end of the run


@settings(max_examples=15, deadline=None)
@given(stream=branch_streams)
def test_storage_bits_stable_under_use(stream):
    """Training must never change a predictor's hardware footprint."""
    for predictor in build_all():
        before = predictor.storage_bits
        for pc, taken in stream:
            predictor.predict(pc)
            predictor.update(pc, taken)
        assert predictor.storage_bits == before


# -- cycle-simulator invariants on arbitrary small traces ---------------------


def _block_strategy():
    """Strategy for one well-formed fetch block."""
    return st.builds(
        _make_block,
        pc=st.integers(min_value=0x1000, max_value=0x2000).map(lambda v: v & ~3),
        instructions=st.integers(min_value=1, max_value=12),
        kind=st.sampled_from(["none", "cond_taken", "cond_not_taken"]),
    )


def _make_block(pc, instructions, kind):
    from repro.workloads.trace import Block, BranchKind

    if kind == "none":
        return Block(pc=pc, instructions=instructions)
    taken = kind == "cond_taken"
    return Block(
        pc=pc,
        instructions=instructions,
        branch_kind=BranchKind.CONDITIONAL,
        branch_pc=pc + (instructions - 1) * 4,
        taken=taken,
        target=0x3000,
    )


@settings(max_examples=25, deadline=None)
@given(blocks=st.lists(_block_strategy(), min_size=1, max_size=60))
def test_simulator_cycle_bounds_on_any_trace(blocks):
    """Invariants: the machine can never beat its issue width, never takes
    fewer cycles than blocks fetched, and accounts every instruction."""
    from repro.uarch.config import MachineConfig
    from repro.uarch.policies import SingleCyclePolicy
    from repro.uarch.simulator import CycleSimulator

    trace = trace_from_blocks("fuzz", blocks)
    result = CycleSimulator(
        SingleCyclePolicy(GsharePredictor(1024)), config=MachineConfig(), ilp=4.0
    ).run(trace)
    assert result.instructions == trace.instruction_count
    assert result.conditional_branches == trace.conditional_branch_count
    assert result.cycles >= len(blocks)  # at most one block per cycle here
    assert result.ipc <= 8.0 + 1e-9
    assert result.mispredictions <= result.conditional_branches


@settings(max_examples=15, deadline=None)
@given(blocks=st.lists(_block_strategy(), min_size=1, max_size=60))
def test_simulator_is_deterministic(blocks):
    from repro.uarch.policies import SingleCyclePolicy
    from repro.uarch.simulator import CycleSimulator

    trace = trace_from_blocks("fuzz", blocks)
    first = CycleSimulator(SingleCyclePolicy(GsharePredictor(1024)), ilp=3.0).run(trace)
    second = CycleSimulator(SingleCyclePolicy(GsharePredictor(1024)), ilp=3.0).run(trace)
    assert first.cycles == second.cycles
    assert first.mispredictions == second.mispredictions
