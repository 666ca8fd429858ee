"""Workload substrate: SPECint-2000 stand-ins, scenario profiles and
closed-form string-matching oracle kernels, all resolved by name through
the workload catalog."""

from repro.workloads.catalog import (
    WorkloadSpec,
    get_workload,
    has_workload,
    register_workload,
    workload_names,
)
from repro.workloads.cfg import (
    Call,
    Function,
    If,
    Loop,
    MemOp,
    Program,
    StraightCode,
    TripSampler,
    layout_program,
)
from repro.workloads.predicates import (
    BiasedPredicate,
    GlobalParityPredicate,
    HiddenStatePredicate,
    PatternPredicate,
    Predicate,
    ProgramState,
)
from repro.workloads.io import load_trace, read_branch_trace, save_trace
from repro.workloads.program import MemoryConfig, ProgramExecutor
from repro.workloads.spec2000 import (
    INSTRUCTIONS_PER_BRANCH,
    executor_run_count,
    get_profile,
    reset_executor_runs,
    spec2000_names,
    spec2000_profiles,
    spec2000_trace,
    warm_trace_store,
)
from repro.workloads.store import (
    TraceStore,
    active_store,
    reset_store_stats,
    store_stats,
    trace_digest,
)
from repro.workloads.stringmatch import (
    MatcherPredicate,
    StringMatchProfile,
    build_stringmatch_program,
    stringmatch_profiles,
)
from repro.workloads.synth import (
    PredicateMix,
    WorkloadProfile,
    build_program,
    scenario_profiles,
)
from repro.workloads.trace import Block, BranchKind, ColumnarTrace

__all__ = [
    "BiasedPredicate",
    "Block",
    "BranchKind",
    "Call",
    "ColumnarTrace",
    "TraceStore",
    "Function",
    "GlobalParityPredicate",
    "HiddenStatePredicate",
    "INSTRUCTIONS_PER_BRANCH",
    "If",
    "Loop",
    "MatcherPredicate",
    "MemOp",
    "MemoryConfig",
    "PatternPredicate",
    "Predicate",
    "PredicateMix",
    "Program",
    "ProgramExecutor",
    "ProgramState",
    "StraightCode",
    "StringMatchProfile",
    "TripSampler",
    "WorkloadProfile",
    "WorkloadSpec",
    "active_store",
    "build_program",
    "build_stringmatch_program",
    "executor_run_count",
    "get_profile",
    "get_workload",
    "has_workload",
    "layout_program",
    "load_trace",
    "read_branch_trace",
    "register_workload",
    "reset_executor_runs",
    "reset_store_stats",
    "scenario_profiles",
    "spec2000_names",
    "spec2000_profiles",
    "save_trace",
    "spec2000_trace",
    "store_stats",
    "stringmatch_profiles",
    "trace_digest",
    "warm_trace_store",
    "workload_names",
]
