"""Tests for the workload substrate: traces, predicates, programs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, TraceError
from repro.common.rng import derive
from repro.workloads.cfg import (
    Call,
    Function,
    If,
    Loop,
    Program,
    StraightCode,
    TripSampler,
    layout_program,
)
from repro.workloads.catalog import get_workload
from repro.workloads.io import columns_checksum
from repro.workloads.predicates import (
    BiasedPredicate,
    GlobalParityPredicate,
    HiddenStatePredicate,
    PatternPredicate,
    ProgramState,
)
from repro.workloads.program import MemoryConfig, ProgramExecutor
from repro.workloads.spec2000 import get_profile, spec2000_names, spec2000_trace
from repro.workloads.synth import WorkloadProfile, build_program
from repro.workloads.trace import Block, BranchKind, ColumnarTrace
from tests.trace_blocks import trace_from_blocks


class TestBlock:
    def test_requires_instructions(self):
        with pytest.raises(TraceError):
            Block(pc=0x1000, instructions=0)

    def test_branch_requires_branch_pc(self):
        with pytest.raises(TraceError):
            Block(pc=0x1000, instructions=1, branch_kind=BranchKind.CONDITIONAL)

    def test_has_conditional(self):
        block = Block(
            pc=0x1000,
            instructions=2,
            branch_kind=BranchKind.CONDITIONAL,
            branch_pc=0x1004,
            taken=True,
            target=0x2000,
        )
        assert block.has_conditional


class TestTrace:
    def _blocks(self, second_pc=0x2000):
        return [
            Block(
                pc=0x1000,
                instructions=3,
                branch_kind=BranchKind.CONDITIONAL,
                branch_pc=0x1008,
                taken=True,
                target=0x2000,
            ),
            Block(pc=second_pc, instructions=2),
        ]

    def _trace(self):
        return trace_from_blocks("t", self._blocks())

    def test_counts(self):
        trace = self._trace()
        assert trace.instruction_count == 5
        assert trace.conditional_branch_count == 1
        assert trace.taken_rate == 1.0
        assert trace.static_branch_count() == 1

    def test_validate_accepts_continuous_flow(self):
        self._trace().validate()

    def test_validate_rejects_discontinuity(self):
        trace = trace_from_blocks("t", self._blocks(second_pc=0x3000))
        with pytest.raises(TraceError):
            trace.validate()

    def test_branch_iterator(self):
        assert list(self._trace().conditional_branches()) == [(0x1008, True)]

    def test_rejects_empty_block(self):
        """A trace checks every block as :class:`Block` checks one."""
        columns = self._trace().columns()
        instructions = columns["instructions"].copy()
        instructions[1] = 0
        with pytest.raises(TraceError, match="0x2000 has no instructions"):
            ColumnarTrace("t", **{**columns, "instructions": instructions})

    def test_rejects_branch_without_branch_pc(self):
        columns = self._trace().columns()
        branch_pc = columns["branch_pc"].copy()
        branch_pc[0] = 0
        with pytest.raises(TraceError, match="0x1000 has a branch without a branch_pc"):
            ColumnarTrace("t", **{**columns, "branch_pc": branch_pc})


class TestPredicates:
    def _state(self, seed=1):
        return ProgramState(derive(seed, "test"), hidden_bits=4)

    def test_biased_validates(self):
        with pytest.raises(ConfigurationError):
            BiasedPredicate(bias=1.5)

    def test_biased_rate(self):
        state = self._state()
        predicate = BiasedPredicate(bias=0.9)
        taken = sum(predicate.evaluate(state) for _ in range(2000))
        assert 1650 <= taken <= 1950

    def test_pattern_cycles(self):
        state = self._state()
        predicate = PatternPredicate(pattern=(True, False, False))
        outcomes = [predicate.evaluate(state) for _ in range(6)]
        assert outcomes == [True, False, False, True, False, False]

    def test_pattern_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            PatternPredicate(pattern=())

    def test_parity_xor_deterministic_given_history(self):
        state = self._state()
        state.record_outcome(True)
        state.record_outcome(False)  # history (newest first): F, T
        predicate = GlobalParityPredicate(lags=(1, 2), noise=0.0)
        assert predicate.evaluate(state) == (False ^ True)

    def test_parity_and_or(self):
        state = self._state()
        state.record_outcome(True)
        state.record_outcome(True)
        assert GlobalParityPredicate(lags=(1, 2), op="and").evaluate(state)
        state.record_outcome(False)
        assert not GlobalParityPredicate(lags=(1, 2), op="and").evaluate(state)
        assert GlobalParityPredicate(lags=(1, 2), op="or").evaluate(state)

    def test_parity_validates(self):
        with pytest.raises(ConfigurationError):
            GlobalParityPredicate(lags=())
        with pytest.raises(ConfigurationError):
            GlobalParityPredicate(lags=(1,), op="nand")

    def test_hidden_tracks_bit(self):
        state = self._state()
        state.hidden[2] = True
        predicate = HiddenStatePredicate(index=2, noise=0.0)
        assert predicate.evaluate(state)
        state.hidden[2] = False
        assert not predicate.evaluate(state)

    def test_outcome_at_lag_bounds(self):
        state = self._state()
        with pytest.raises(ConfigurationError):
            state.outcome_at_lag(0)


class TestTripSampler:
    def test_fixed(self):
        sampler = TripSampler(kind="fixed", mean=7)
        rng = derive(1, "trips")
        assert all(sampler.sample(rng) == 7 for _ in range(10))

    def test_uniform_range(self):
        sampler = TripSampler(kind="uniform", low=3, high=6)
        rng = derive(1, "trips")
        samples = [sampler.sample(rng) for _ in range(200)]
        assert min(samples) >= 3 and max(samples) <= 6

    def test_geometric_at_least_one(self):
        sampler = TripSampler(kind="geometric", mean=4)
        rng = derive(1, "trips")
        assert all(sampler.sample(rng) >= 1 for _ in range(200))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TripSampler(kind="poisson")
        with pytest.raises(ConfigurationError):
            TripSampler(kind="uniform", low=5, high=2)


class TestLayout:
    def _program(self):
        inner = [StraightCode(instructions=4)]
        body = [
            StraightCode(instructions=2),
            If(predicate=BiasedPredicate(0.5), then_body=list(inner), else_body=[StraightCode(instructions=3)]),
            Loop(body=[StraightCode(instructions=1)], trips=TripSampler(kind="fixed", mean=3)),
            Call(callee_index=1),
        ]
        callee = Function(name="fn1", body=[StraightCode(instructions=5)])
        return Program(name="p", functions=[Function(name="main", body=body), callee])

    def test_layout_assigns_monotone_addresses(self):
        program = layout_program(self._program())
        assert program.code_size_bytes > 0
        main = program.main
        assert main.entry_address == program.code_base
        addresses = [node.address for node in main.body]
        assert addresses == sorted(addresses)

    def test_if_layout_targets(self):
        program = layout_program(self._program())
        if_node = program.main.body[1]
        assert if_node.branch_address == if_node.address
        # taken target lands at the else side, before the join.
        assert if_node.branch_address < if_node.taken_target <= if_node.join_address

    def test_loop_layout(self):
        program = layout_program(self._program())
        loop = program.main.body[2]
        assert loop.head_address < loop.back_edge_address < loop.exit_address

    def test_static_branch_enumeration(self):
        program = layout_program(self._program())
        sites = program.static_conditional_branches()
        assert len(sites) == 2  # the if and the loop back edge
        assert len(set(sites)) == 2


class TestExecutor:
    def _run(self, budget=5000, seed=3):
        program = layout_program(self._make_program())
        executor = ProgramExecutor(program, seed=seed)
        return executor.run(budget)

    @staticmethod
    def _make_program():
        body = [
            StraightCode(instructions=3),
            Loop(
                body=[StraightCode(instructions=2)],
                trips=TripSampler(kind="fixed", mean=4),
            ),
            If(
                predicate=BiasedPredicate(0.7),
                then_body=[StraightCode(instructions=2)],
                else_body=[StraightCode(instructions=2)],
            ),
            Call(callee_index=1),
        ]
        callee = Function(name="fn1", body=[StraightCode(instructions=4)])
        return Program(name="p", functions=[Function(name="main", body=body), callee])

    def test_budget_respected(self):
        trace = self._run(budget=5000)
        assert 5000 <= trace.instruction_count <= 5010

    def test_control_flow_is_continuous(self):
        self._run().validate()

    def test_deterministic(self):
        a = self._run(seed=9)
        b = self._run(seed=9)
        assert [bl.pc for bl in a.blocks] == [bl.pc for bl in b.blocks]
        assert [bl.taken for bl in a.blocks] == [bl.taken for bl in b.blocks]

    def test_different_seeds_differ(self):
        a = self._run(seed=1, budget=3000)
        b = self._run(seed=2, budget=3000)
        assert [bl.taken for bl in a.blocks] != [bl.taken for bl in b.blocks]

    def test_fixed_loop_emits_trip_pattern(self):
        trace = self._run(budget=2000)
        program_loop_taken = [
            block.taken
            for block in trace.blocks
            if block.has_conditional and block.target == block.pc - 0  # loop back edges target head
        ]
        assert trace.conditional_branch_count > 0

    def test_calls_and_returns_balance(self):
        trace = self._run(budget=8000)
        calls = sum(1 for b in trace.blocks if b.branch_kind == BranchKind.CALL)
        returns = sum(1 for b in trace.blocks if b.branch_kind == BranchKind.RETURN)
        assert abs(calls - returns) <= 1

    def test_requires_layout(self):
        with pytest.raises(ConfigurationError):
            ProgramExecutor(self._make_program(), seed=1)

    @pytest.mark.parametrize("name", ["gzip", "vpr", "gcc", "kmp_abab_u2"])
    def test_one_program_runs_identically_twice(self, name):
        """A run leaves the laid-out program as it found it: a second
        executor over the same program, with the same seed, writes the
        same columns as the first (pattern positions and matcher state
        belong to the run, not to the program)."""
        spec = get_workload(name)
        program = spec.build(spec.profile)

        def checksum() -> str:
            trace = ProgramExecutor(
                program,
                seed=1,
                memory=spec.profile.memory,
                hidden_bits=spec.profile.hidden_bits,
            ).run(20_000)
            return columns_checksum(trace.name, trace.columns())

        assert checksum() == checksum()

    def test_memory_config_validation(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig(working_set_bytes=1024)
        with pytest.raises(ConfigurationError):
            MemoryConfig(hot_bytes=1 << 22, working_set_bytes=1 << 20)


class TestSynthesis:
    def test_deterministic_build(self):
        profile = get_profile("gzip")
        a = build_program(profile)
        b = build_program(profile)
        assert a.code_size_bytes == b.code_size_bytes
        assert a.static_conditional_branches() == b.static_conditional_branches()

    def test_cost_budgeting_bounds_main_iteration(self):
        """One main iteration must stay near the profile's main_cost, so a
        trace revisits the whole program many times."""
        profile = get_profile("gzip")
        program = build_program(profile)
        executor = ProgramExecutor(program, seed=1, memory=profile.memory)
        trace = executor.run(int(profile.main_cost * 30))
        loop_pc = program.main.return_site_address
        iterations = sum(1 for b in trace.blocks if b.branch_pc == loop_pc)
        assert iterations >= 10

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(name="bad", functions=0)
        with pytest.raises(ConfigurationError):
            WorkloadProfile(name="bad", ilp=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=10_000))
    def test_any_seed_builds_and_runs(self, seed):
        profile = WorkloadProfile(name="fuzz", seed=seed, functions=3, main_cost=800.0)
        program = build_program(profile)
        trace = ProgramExecutor(program, seed=seed).run(3000)
        trace.validate()
        assert trace.instruction_count >= 3000


class TestSpec2000:
    def test_twelve_benchmarks(self):
        assert len(spec2000_names()) == 12

    def test_profiles_exist_for_all(self):
        for name in spec2000_names():
            assert get_profile(name).name == name

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigurationError):
            get_profile("specjbb")

    def test_trace_api_validation(self):
        with pytest.raises(ConfigurationError):
            spec2000_trace("gcc")
        with pytest.raises(ConfigurationError):
            spec2000_trace("gcc", instructions=1000, branches=1000)

    def test_trace_caching(self):
        a = spec2000_trace("gzip", instructions=20_000)
        b = spec2000_trace("gzip", instructions=20_000)
        assert a is b

    def test_branch_budget_conversion(self):
        trace = spec2000_trace("gzip", branches=5000)
        assert trace.instruction_count == 5000 * 6

    def test_traces_have_realistic_structure(self, small_trace):
        assert small_trace.conditional_branch_count > 1000
        assert 0.4 < small_trace.taken_rate < 0.85
        assert small_trace.static_branch_count() > 50
