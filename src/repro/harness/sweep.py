"""Budget-sweep building blocks used by the figure generators.

A sweep runs one predictor configuration per (benchmark, budget) cell and
aggregates across benchmarks per the paper's conventions.  Predictors are
constructed fresh per cell (no state leaks across benchmarks), while traces
are cached by the workload layer so the expensive part is paid once — and,
with ``REPRO_TRACE_STORE`` set, persisted to the content-addressed trace
store so later *processes* pay nothing either (warm runs replay columnar
traces with byte-identical sweep results).

Both sweeps build their grid of :class:`~repro.harness.campaign.Shard`
cells and hand it to :func:`repro.harness.campaign.execute_sweep`, the one
executor.  ``jobs`` (default: the ``REPRO_JOBS`` environment variable)
and ``run_dir`` (default ``REPRO_RUN_DIR``) choose its path: ``jobs == 1``
with no run directory computes the cells in order, in-process, through
:func:`compute_shards`; anything else plans them into a campaign drained
by ``jobs`` local worker processes, checkpointed under ``run_dir`` for
crash resume.  Either way every cell is computed by :func:`shard_payload`
and the returned cells are identical.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import asdict, dataclass
from itertools import groupby

from repro import obs
from repro.common.errors import ConfigurationError
from repro.core.overriding import OverridingPredictor
from repro.harness.aggregate import arithmetic_mean, harmonic_mean
from repro.harness.campaign import (
    Shard,
    _shard_result_key,
    accuracy_shard_grid,
    execute_sweep,
    shard_grid,
)
from repro.harness.experiment import (
    default_engine,
    default_jobs,
    measure_accuracy,
    measure_override,
)
from repro.harness.resultstore import CODE_VERSION, IPC_MODEL_VERSION, active_result_store
from repro.harness.scale import (
    WARMUP_FRACTION,
    accuracy_instructions,
    benchmark_names,
    ipc_instructions,
    warmup_branches,
)
from repro.predictors import registry
from repro.predictors.base import BranchPredictor
from repro.timing.latency import predictor_latency
from repro.uarch.config import PAPER_MACHINE, MachineConfig
from repro.uarch.policies import FetchPolicy, OverridingPolicy, SingleCyclePolicy
from repro.uarch.simulator import CycleSimulator, SimulationResult
from repro.workloads.spec2000 import get_profile, spec2000_trace

#: The paper's power-of-two budget ladder (bytes).
FULL_BUDGETS = [2**k * 1024 for k in range(1, 10)]  # 2KB .. 512KB
LARGE_BUDGETS = [2**k * 1024 for k in range(4, 10)]  # 16KB .. 512KB


def _resolve_parallel(
    jobs: int | None, run_dir: str | None
) -> tuple[int, str | None]:
    """Resolve the (jobs, run_dir) pair a sweep call should use.

    ``jobs=None`` defers to ``REPRO_JOBS`` (default 1: serial in-process);
    ``run_dir=None`` defers to ``REPRO_RUN_DIR`` (default: no checkpoints).
    """
    if jobs is None:
        jobs = default_jobs()
    if run_dir is None:
        run_dir = os.environ.get("REPRO_RUN_DIR", "").strip() or None
    return jobs, run_dir


def build_family(family: str, budget_bytes: int) -> BranchPredictor:
    """Construct any registered predictor family — one registry lookup,
    covering the factory families and the pipelined ``repro.core`` ones."""
    return registry.build(family, budget_bytes)


@dataclass(frozen=True)
class AccuracyCell:
    """One (benchmark, family, budget) accuracy measurement."""

    benchmark: str
    family: str
    budget_bytes: int
    misprediction_percent: float


def accuracy_sweep(
    families: list[str],
    budgets: list[int],
    benchmarks: list[str] | None = None,
    instructions: int | None = None,
    engine: str | None = None,
    jobs: int | None = None,
    run_dir: str | None = None,
    max_retries: int | None = None,
) -> list[AccuracyCell]:
    """Misprediction rate for every (family, budget, benchmark) cell.

    ``engine`` selects the evaluation engine per cell (scalar reference or
    the vectorized batch engine); ``None`` defers to ``REPRO_ENGINE``.

    ``jobs`` > 1 fans the grid out across worker processes (``None`` defers
    to ``REPRO_JOBS``); ``run_dir`` checkpoints finished cells there so an
    interrupted sweep resumes without recomputation, retrying failed cells
    ``max_retries`` times.  Results are identical to the serial path.
    """
    if benchmarks is None:
        benchmarks = benchmark_names()
    if instructions is None:
        instructions = accuracy_instructions()
    jobs, run_dir = _resolve_parallel(jobs, run_dir)
    cfg = {
        "instructions": instructions,
        "engine": engine if engine is not None else default_engine(),
        "warmup_fraction": WARMUP_FRACTION,
        "code_version": CODE_VERSION,
    }
    shards = accuracy_shard_grid(families, budgets, benchmarks)
    # The sweep-level span is the trace's local root for this sweep: the
    # in-memory per-benchmark spans (or the campaign run span with every
    # worker's shard spans) all parent beneath it.
    with obs.span(
        "accuracy_sweep",
        benchmarks=len(benchmarks),
        families=len(families),
        budgets=len(budgets),
        jobs=jobs,
    ):
        payloads = execute_sweep(
            shards, cfg, jobs=jobs, run_dir=run_dir, max_retries=max_retries,
            label="accuracy_sweep",
        )
    return [
        AccuracyCell(
            benchmark=shard.benchmark,
            family=shard.family,
            budget_bytes=shard.budget_bytes,
            misprediction_percent=payload["misprediction_percent"],
        )
        for shard, payload in zip(shards, payloads)
    ]


class _LazyTrace:
    """One benchmark trace fetched at most once, and only when some cell
    actually misses the result store."""

    def __init__(self, benchmark: str, instructions: int) -> None:
        self.benchmark = benchmark
        self.instructions = instructions
        self._trace = None

    @property
    def trace(self):
        if self._trace is None:
            self._trace = spec2000_trace(self.benchmark, instructions=self.instructions)
        return self._trace

    @property
    def warmup(self) -> int:
        return warmup_branches(self.trace.conditional_branch_count)


def compute_shards(shards: list[Shard], cfg: dict) -> list[dict]:
    """Every shard's payload in order, computed in this process — the
    executor's in-memory path.

    Consecutive shards of one benchmark share one lazily fetched trace
    under one ``<kind>_sweep.benchmark`` span: with a warm result store
    the trace (and every predictor) is never touched.
    """
    store = active_result_store()
    payloads = []
    for benchmark, group in groupby(shards, key=lambda shard: shard.benchmark):
        group = list(group)
        with obs.span(
            f"{group[0].kind}_sweep.benchmark", benchmark=benchmark, cells=len(group)
        ):
            loader = _LazyTrace(benchmark, cfg["instructions"])
            payloads.extend(shard_payload(shard, cfg, store, loader) for shard in group)
    return payloads


def shard_payload(
    shard: Shard, cfg: dict, store, loader: _LazyTrace | None = None
) -> dict:
    """One cell through the result store (or computed directly) — the one
    cell computation, called by the in-memory path and every campaign
    worker alike.

    Cached and computed payloads are both JSON round-trips of the same
    floats, so warm sweeps are byte-identical to cold ones.
    """
    if loader is None:
        loader = _LazyTrace(shard.benchmark, cfg["instructions"])

    def compute_accuracy() -> dict:
        predictor = build_family(shard.family, shard.budget_bytes)
        result = measure_accuracy(
            predictor, loader.trace, warmup_branches=loader.warmup, engine=cfg["engine"]
        )
        return {"misprediction_percent": result.misprediction_percent}

    def compute_ipc() -> dict:
        policy = make_policy(shard.family, shard.budget_bytes, shard.mode)
        simulator = CycleSimulator(
            policy,
            config=MachineConfig(**cfg["machine"]),
            ilp=get_profile(shard.benchmark).ilp,
        )
        result: SimulationResult = simulator.run(loader.trace)
        override_rate = (
            result.overrides / result.conditional_branches
            if result.conditional_branches
            else 0.0
        )
        return {
            "ipc": result.ipc,
            "misprediction_percent": 100.0 * result.misprediction_rate,
            "override_rate": override_rate,
        }

    if shard.kind == "accuracy":
        compute = compute_accuracy
    elif shard.kind == "ipc":
        compute = compute_ipc
    else:
        raise ConfigurationError(f"unknown shard kind {shard.kind!r}")
    if store is None:
        return compute()
    key, cell = _shard_result_key(shard, cfg)
    return store.get_or_compute(key, cell, compute)


def mean_by_family_budget(cells: list[AccuracyCell]) -> dict[tuple[str, int], float]:
    """Arithmetic mean misprediction (%) per (family, budget)."""
    groups: dict[tuple[str, int], list[float]] = {}
    for cell in cells:
        groups.setdefault((cell.family, cell.budget_bytes), []).append(
            cell.misprediction_percent
        )
    return {key: arithmetic_mean(values) for key, values in groups.items()}


# -- IPC sweeps ---------------------------------------------------------------


#: The fetch-policy modes :func:`make_policy` builds (and IPC configs name).
POLICY_MODES = ("ideal", "overriding")


def make_policy(family: str, budget_bytes: int, mode: str) -> FetchPolicy:
    """Build the fetch policy for a family/budget under ``mode``.

    Modes: ``ideal`` (zero-delay complex predictor — Figure 7 left),
    ``overriding`` (quick 2K gshare + slow complex predictor — Figure 7
    right).  Which path a family takes is read off its registry spec:
    ``single_cycle`` families (pipelined by construction) accept either
    mode and never need overriding; ``override_eligible`` families have a
    latency model and can play the slow side of an overriding pair.
    """
    if mode not in POLICY_MODES:
        raise ConfigurationError(
            f"unknown policy mode {mode!r}; valid modes are {', '.join(POLICY_MODES)}"
        )
    spec = registry.get_spec(family)
    predictor = registry.build(family, budget_bytes)
    if spec.single_cycle or mode == "ideal":
        return SingleCyclePolicy(predictor)
    if not spec.override_eligible:
        raise ConfigurationError(
            f"family {family!r} is not override-eligible "
            f"(no latency model registers it as a slow predictor)"
        )
    latency = predictor_latency(family, budget_bytes)
    return OverridingPolicy(OverridingPredictor(predictor, slow_latency=latency))


@dataclass(frozen=True)
class IpcCell:
    """One (benchmark, family, mode, budget) cycle-simulation result."""

    benchmark: str
    family: str
    mode: str
    budget_bytes: int
    ipc: float
    misprediction_percent: float
    override_rate: float


def ipc_sweep(
    families: list[str],
    budgets: list[int],
    mode: str,
    benchmarks: list[str] | None = None,
    instructions: int | None = None,
    config: MachineConfig = PAPER_MACHINE,
    jobs: int | None = None,
    run_dir: str | None = None,
    max_retries: int | None = None,
) -> list[IpcCell]:
    """Cycle-simulated IPC for every (family, budget, benchmark) cell.

    Execution mirrors :func:`accuracy_sweep`: ``jobs`` > 1 shards the grid
    across worker processes with optional ``run_dir`` checkpoints.
    """
    if benchmarks is None:
        benchmarks = benchmark_names()
    if instructions is None:
        instructions = ipc_instructions()
    jobs, run_dir = _resolve_parallel(jobs, run_dir)
    cfg = {
        "instructions": instructions,
        "machine": asdict(config),
        "model_version": IPC_MODEL_VERSION,
        "code_version": CODE_VERSION,
    }
    shards = shard_grid("ipc", families, budgets, benchmarks, modes=(mode,))
    # Same trace shape as accuracy_sweep: one sweep-level root span over
    # either the in-memory per-benchmark spans or the campaign's tree.
    with obs.span(
        "ipc_sweep",
        mode=mode,
        benchmarks=len(benchmarks),
        families=len(families),
        budgets=len(budgets),
        jobs=jobs,
    ):
        payloads = execute_sweep(
            shards, cfg, jobs=jobs, run_dir=run_dir, max_retries=max_retries,
            label=f"ipc_sweep.{mode}",
        )
    return [
        IpcCell(
            benchmark=shard.benchmark,
            family=shard.family,
            mode=mode,
            budget_bytes=shard.budget_bytes,
            ipc=payload["ipc"],
            misprediction_percent=payload["misprediction_percent"],
            override_rate=payload["override_rate"],
        )
        for shard, payload in zip(shards, payloads)
    ]


def hmean_ipc_by_family_budget(cells: list[IpcCell]) -> dict[tuple[str, int], float]:
    """Harmonic mean IPC per (family, budget)."""
    groups: dict[tuple[str, int], list[float]] = {}
    for cell in cells:
        groups.setdefault((cell.family, cell.budget_bytes), []).append(cell.ipc)
    return {key: harmonic_mean(values) for key, values in groups.items()}


Builder = Callable[[str, int], BranchPredictor]


def override_statistics(
    family: str,
    budget_bytes: int,
    benchmarks: list[str] | None = None,
    instructions: int | None = None,
) -> dict[str, float]:
    """Per-benchmark override (disagreement) rates for a quick/slow pair."""
    if benchmarks is None:
        benchmarks = benchmark_names()
    if instructions is None:
        instructions = accuracy_instructions()
    latency = predictor_latency(family, budget_bytes)
    rates = {}
    for benchmark in benchmarks:
        with obs.span("override_statistics.benchmark", benchmark=benchmark, family=family):
            trace = spec2000_trace(benchmark, instructions=instructions)
            overriding = OverridingPredictor(
                build_family(family, budget_bytes), slow_latency=latency
            )
            result = measure_override(overriding, trace)
            rates[benchmark] = result.override_rate
    return rates
