"""Budget-sweep building blocks used by the figure generators.

A sweep runs one predictor configuration per (benchmark, budget) cell and
aggregates across benchmarks per the paper's conventions.  Predictors are
constructed fresh per cell (no state leaks across benchmarks), while traces
are cached by the workload layer so the expensive part is paid once — and,
with ``REPRO_TRACE_STORE`` set, persisted to the content-addressed trace
store so later *processes* pay nothing either (warm runs replay columnar
traces with byte-identical sweep results).

A cell has one of three kinds: ``accuracy`` (misprediction rate after the
warm-up window), ``ipc`` (a cycle simulation under a policy mode) and
``override`` (how often an overriding pair's slow predictor overrides its
quick one, over the whole accuracy-length trace).  A cell may carry a
variant — overrides of its family's sized config, of the machine, or of
the quick predictor's entries — and :func:`resolve_shard` applies it:
result keys hash what a cell builds, never a label.

Every grid becomes a list of :class:`~repro.harness.campaign.Shard` cells
handed to :func:`repro.harness.campaign.execute_sweep`, the one executor
(:func:`sweep_grid`).  ``jobs`` (default: the ``REPRO_JOBS`` setting)
and ``run_dir`` (default ``REPRO_RUN_DIR``) choose its path:
``jobs == 1`` with no run directory computes the cells in order,
in-process, through :func:`compute_shards`; anything else plans them into a
campaign drained by ``jobs`` local worker processes, checkpointed under
``run_dir`` for crash resume.  Either way every cell is computed by
:func:`shard_payload` and the returned cells are identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from itertools import groupby

from repro import obs
from repro.common import settings
from repro.common.errors import ConfigurationError
from repro.core.dualpath import DualPathPolicy
from repro.core.overriding import OverridingPredictor
from repro.harness.aggregate import arithmetic_mean, harmonic_mean
from repro.harness.campaign import Shard, execute_sweep
from repro.harness.experiment import measure_accuracy, measure_override
from repro.harness.figconfig import GridSpec, grid_shards
from repro.harness.resultstore import (
    CODE_VERSION,
    IPC_MODEL_VERSION,
    ResultCell,
    accuracy_key_payload,
    active_result_store,
    cell_key_payload,
    ipc_key_payload,
    result_digest,
)
from repro.harness.scale import (
    WARMUP_FRACTION,
    accuracy_instructions,
    ipc_instructions,
    warmup_branches,
)
from repro.predictors import registry
from repro.predictors.gshare import GsharePredictor
from repro.predictors.sizing import SizingConfig
from repro.timing.latency import QUICK_PREDICTOR_ENTRIES, predictor_latency
from repro.uarch.config import PAPER_MACHINE, MachineConfig
from repro.uarch.policies import (
    DualPathFetchPolicy,
    FetchPolicy,
    OverridingPolicy,
    SingleCyclePolicy,
)
from repro.uarch.simulator import CycleSimulator, SimulationResult
from repro.workloads.spec2000 import get_profile, spec2000_trace

#: The paper's power-of-two budget ladder (bytes).
FULL_BUDGETS = [2**k * 1024 for k in range(1, 10)]  # 2KB .. 512KB
LARGE_BUDGETS = [2**k * 1024 for k in range(4, 10)]  # 16KB .. 512KB

#: What a variant override may set: a field of the family's sized config,
#: of :class:`~repro.uarch.config.MachineConfig`, or the overriding pair's
#: quick gshare (``entries`` only).
VARIANT_TARGETS = ("config", "machine", "quick")


def grid_cfg(
    kind: str,
    instructions: int | None = None,
    engine: str | None = None,
    machine: MachineConfig = PAPER_MACHINE,
) -> dict:
    """The sweep configuration of one cell kind — the dict a campaign pins
    in ``campaign.json`` and every cell key reads.  ``None`` arguments
    resolve from the settings (``REPRO_SCALE``, ``REPRO_ENGINE``), so
    the sweeps, ``--dry-run``, the service and ``repro-campaign`` derive
    identical keys for identical cells."""
    if kind == "ipc":
        return {
            "instructions": ipc_instructions() if instructions is None else instructions,
            "machine": asdict(machine),
            "model_version": IPC_MODEL_VERSION,
            "code_version": CODE_VERSION,
        }
    cfg = {
        "instructions": accuracy_instructions() if instructions is None else instructions,
        "code_version": CODE_VERSION,
    }
    if kind == "accuracy":
        cfg["engine"] = settings.get("REPRO_ENGINE") if engine is None else engine
        cfg["warmup_fraction"] = WARMUP_FRACTION
    elif kind != "override":
        raise ConfigurationError(f"unknown cell kind {kind!r}")
    return cfg


def sweep_grid(
    grid: GridSpec,
    mode: str = "",
    cfg: dict | None = None,
    jobs: int | None = None,
    run_dir: str | None = None,
    max_retries: int | None = None,
) -> list[tuple[Shard, dict]]:
    """Every cell of ``grid`` — in policy ``mode`` for IPC grids — with its
    payload, in canonical order, through the one executor.

    ``cfg`` defaults to :func:`grid_cfg` of the grid's kind.  ``jobs`` > 1
    fans the cells out across worker processes (``None`` defers to
    ``REPRO_JOBS``); ``run_dir`` checkpoints finished cells there so an
    interrupted sweep resumes without recomputation, retrying failed cells
    ``max_retries`` times.  Results are identical to the serial path.
    """
    shards = grid_shards(grid, (mode,) if mode else None)
    if cfg is None:
        cfg = grid_cfg(grid.kind)
    if jobs is None:
        jobs = settings.get("REPRO_JOBS")
    if run_dir is None:
        run_dir = settings.get("REPRO_RUN_DIR")
    # The sweep-level span is the trace's local root for this sweep: the
    # in-memory per-benchmark spans (or the campaign run span with every
    # worker's shard spans) all parent beneath it.
    with obs.span(
        f"{grid.kind}_sweep",
        **({"mode": mode} if mode else {}),
        benchmarks=len({shard.benchmark for shard in shards}),
        families=len(grid.families),
        budgets=len(grid.budgets),
        jobs=jobs,
    ):
        payloads = execute_sweep(
            shards, cfg, jobs=jobs, run_dir=run_dir, max_retries=max_retries,
            label=f"{grid.kind}_sweep" + (f".{mode}" if mode else ""),
        )
    return list(zip(shards, payloads))


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
    Execution is :func:`sweep_grid`'s.
    """
    cells = sweep_grid(
        GridSpec("accuracy", tuple(families), tuple(budgets), benchmarks and tuple(benchmarks)),
        cfg=grid_cfg("accuracy", instructions, engine),
        jobs=jobs, run_dir=run_dir, max_retries=max_retries,
    )
    return [
        AccuracyCell(
            benchmark=shard.benchmark,
            family=shard.family,
            budget_bytes=shard.budget_bytes,
            misprediction_percent=payload["misprediction_percent"],
        )
        for shard, payload in cells
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


# -- what a cell builds ----------------------------------------------------------


@dataclass(frozen=True)
class QuickGshare:
    """The quick side of an overriding pair: a gshare of ``entries``
    counters, assumed to answer in one cycle (Section 4.1.2)."""

    entries: int = QUICK_PREDICTOR_ENTRIES


@dataclass(frozen=True)
class ResolvedShard:
    """What one shard builds: its family's sized config with the variant
    applied, the policy mode the family resolves to (IPC cells: a
    single-cycle family is ``ideal`` in every mode), the machine (IPC
    cells) and the overriding pair's quick predictor."""

    shard: Shard
    config: SizingConfig
    mode: str
    machine: dict | None
    quick: QuickGshare

    def result_key(self, cfg: dict) -> tuple[str, ResultCell]:
        """The result-store (key, cell) pair.  The key hashes what is
        built, so a variant that changes nothing is the sized cell."""
        shard = self.shard
        cell = (shard.benchmark, shard.family, shard.budget_bytes)
        if shard.kind == "accuracy":
            payload = accuracy_key_payload(
                *cell, cfg["instructions"], cfg["engine"], cfg["warmup_fraction"],
                config=self.config,
            )
        elif shard.kind == "ipc":
            # Only an overriding pair builds the quick gshare, and the
            # paper's leaves the key as it was before quick variants.
            quick = self.mode == "overriding" and self.quick != QuickGshare()
            payload = ipc_key_payload(
                *cell, self.mode, cfg["instructions"], self.machine, config=self.config,
                quick_entries=self.quick.entries if quick else None,
            )
        else:
            payload = cell_key_payload(
                "override", *cell, cfg["instructions"], config=self.config,
                quick_entries=self.quick.entries,
            )
        return result_digest(payload), ResultCell(shard.kind, *cell, self.mode)

    def compute(self, cfg: dict, loader: _LazyTrace) -> dict:
        """The cell's payload, measured on ``loader``'s trace."""
        shard = self.shard
        if shard.kind == "ipc":
            policy = make_policy(
                shard.family, shard.budget_bytes, self.mode, self.config, self.quick.entries
            )
            result: SimulationResult = CycleSimulator(
                policy,
                config=MachineConfig(**self.machine),
                ilp=get_profile(shard.benchmark).ilp,
            ).run(loader.trace)
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
        predictor = registry.build_from_config(shard.family, self.config)
        if shard.kind == "accuracy":
            result = measure_accuracy(
                predictor, loader.trace, warmup_branches=loader.warmup, engine=cfg["engine"]
            )
            return {"misprediction_percent": result.misprediction_percent}
        # Override statistics cover the whole trace: no warm-up window.
        pair = OverridingPredictor(
            predictor,
            slow_latency=_slow_latency(shard.family, shard.budget_bytes),
            quick=GsharePredictor(entries=self.quick.entries),
        )
        result = measure_override(pair, loader.trace)
        return {
            "override_rate": result.override_rate,
            "misprediction_rate": result.misprediction_rate,
        }


def _override(obj, changes: dict, variant: str):
    """``obj`` with ``changes`` applied; a field ``obj`` lacks raises
    ConfigurationError naming it."""
    unknown = sorted(set(changes) - {f.name for f in fields(obj)})
    if unknown:
        raise ConfigurationError(
            f"variant {variant!r} sets unknown {type(obj).__name__} "
            f"field(s) {', '.join(unknown)}"
        )
    return replace(obj, **changes) if changes else obj


def resolve_shard(shard: Shard, cfg: dict) -> ResolvedShard:
    """What ``shard`` builds under ``cfg`` (see :class:`ResolvedShard`)."""
    if shard.kind not in ("accuracy", "ipc", "override"):
        raise ConfigurationError(f"unknown shard kind {shard.kind!r}")
    built = {
        "config": registry.size_config(shard.family, shard.budget_bytes),
        "machine": cfg.get("machine"),
        "quick": QuickGshare(),
    }
    mode = shard.mode
    if shard.kind == "ipc" and registry.get_spec(shard.family).single_cycle:
        mode = "ideal"
    if shard.variant:
        changes: dict[str, dict] = {target: {} for target in VARIANT_TARGETS}
        for override in shard.variant.split(","):
            name, _, value = override.partition("=")
            target, _, field = name.partition(".")
            if target not in changes:
                raise ConfigurationError(
                    f"variant {shard.variant!r} has unknown target {target!r} "
                    f"(valid targets: {', '.join(VARIANT_TARGETS)})"
                )
            changes[target][field] = int(value)
        built["machine"] = MachineConfig(**(built["machine"] or {}))
        for target in VARIANT_TARGETS:
            built[target] = _override(built[target], changes[target], shard.variant)
        built["machine"] = asdict(built["machine"]) if cfg.get("machine") else None
    return ResolvedShard(shard, mode=mode, **built)


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
    resolved = resolve_shard(shard, cfg)
    compute = partial(resolved.compute, cfg, loader)
    if store is None:
        return compute()
    return store.get_or_compute(*resolved.result_key(cfg), compute)


def _means(cells: list, value: str, mean) -> dict[tuple[str, int], float]:
    """``mean`` of each cell's ``value`` per (family, budget)."""
    groups: dict[tuple[str, int], list[float]] = {}
    for cell in cells:
        groups.setdefault((cell.family, cell.budget_bytes), []).append(getattr(cell, value))
    return {key: mean(values) for key, values in groups.items()}


def mean_by_family_budget(cells: list[AccuracyCell]) -> dict[tuple[str, int], float]:
    """Arithmetic mean misprediction (%) per (family, budget)."""
    return _means(cells, "misprediction_percent", arithmetic_mean)


# -- IPC sweeps ---------------------------------------------------------------


#: The fetch-policy modes :func:`make_policy` builds (and IPC configs name).
POLICY_MODES = ("ideal", "overriding", "dualpath")


def _slow_latency(family: str, budget_bytes: int) -> int:
    """The access latency of ``family`` as the slow, delay-hidden side."""
    if not registry.get_spec(family).override_eligible:
        raise ConfigurationError(
            f"family {family!r} is not override-eligible "
            f"(no latency model registers it as a slow predictor)"
        )
    return predictor_latency(family, budget_bytes)


def make_policy(
    family: str,
    budget_bytes: int,
    mode: str,
    config: SizingConfig | None = None,
    quick_entries: int = QUICK_PREDICTOR_ENTRIES,
) -> FetchPolicy:
    """Build the fetch policy for a family/budget under ``mode``.

    Modes: ``ideal`` (zero-delay complex predictor — Figure 7 left),
    ``overriding`` (quick 2K gshare + slow complex predictor — Figure 7
    right), ``dualpath`` (both paths fetched at half width while the slow
    predictor answers — Section 2.6.2).  Which path a family takes is read
    off its registry spec: ``single_cycle`` families (pipelined by
    construction) accept any mode and never need delay hiding;
    ``override_eligible`` families have a latency model and can play the
    slow side.  ``config`` replaces the family's sized config and
    ``quick_entries`` the quick gshare's size.
    """
    if mode not in POLICY_MODES:
        raise ConfigurationError(
            f"unknown policy mode {mode!r}; valid modes are {', '.join(POLICY_MODES)}"
        )
    spec = registry.get_spec(family)
    if config is None:
        config = registry.size_config(family, budget_bytes)
    predictor = registry.build_from_config(family, config)
    if spec.single_cycle or mode == "ideal":
        return SingleCyclePolicy(predictor)
    latency = _slow_latency(family, budget_bytes)
    if mode == "dualpath":
        return DualPathFetchPolicy(DualPathPolicy(predictor, latency=latency))
    quick = GsharePredictor(entries=quick_entries)
    return OverridingPolicy(OverridingPredictor(predictor, slow_latency=latency, quick=quick))


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

    Execution mirrors :func:`accuracy_sweep`.
    """
    cells = sweep_grid(
        GridSpec("ipc", tuple(families), tuple(budgets), benchmarks and tuple(benchmarks), (mode,)),
        mode,
        cfg=grid_cfg("ipc", instructions, machine=config),
        jobs=jobs, run_dir=run_dir, max_retries=max_retries,
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
        for shard, payload in cells
    ]


def hmean_ipc_by_family_budget(cells: list[IpcCell]) -> dict[tuple[str, int], float]:
    """Harmonic mean IPC per (family, budget)."""
    return _means(cells, "ipc", harmonic_mean)
