"""Experiment primitives: run predictors over traces, collect metrics.

Two measurement modes mirror the paper's methodology:

* :func:`measure_accuracy` — pure direction-prediction accuracy of any
  :class:`BranchPredictor` on a trace's conditional-branch stream (the
  Figure 1/5/6 measurements);
* :func:`measure_override` — an :class:`OverridingPredictor` pair on the
  same stream, additionally collecting the override (disagreement) rate the
  paper analyzes in Section 4.5.

Both run on either of two engines:

* ``scalar`` — the branch-at-a-time reference loop below;
* ``batch``  — the vectorized engine in :mod:`repro.batch`, bit-exact with
  the scalar loop (proven by the differential test suite) and about an
  order of magnitude faster on every registered family.

``engine="auto"`` (the default, overridable via the ``REPRO_ENGINE``
environment variable) picks batch whenever the predictor has a batch
kernel and falls back to scalar otherwise, so sweeps speed up without
changing any result.  Resolution lives in :mod:`repro.predictors.engines`,
which the cycle simulator's direction streams share; ``measure_override``
runs the overriding pair's whole-stream method on the resolved engine.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.common.errors import ConfigurationError
from repro.core.overriding import OverridingPredictor
from repro.obs.attribution import (
    Attribution,
    attribution_from_arrays,
    attribution_from_counts,
)
from repro.predictors.base import BranchPredictor
# Engine resolution lives with the predictors, where the cycle simulator
# resolves it too; these names stay importable from here.
from repro.predictors.engines import ENGINES, default_engine, resolve_engine  # noqa: F401
from repro.workloads.trace import Trace


def default_jobs() -> int:
    """The sweep worker count selected by ``REPRO_JOBS`` (default 1).

    ``1`` keeps sweeps on the serial in-process path (unless a run
    directory is given); anything larger plans them into a campaign
    drained by that many local worker processes
    (:func:`repro.harness.campaign.execute_sweep`).  ``auto`` (or ``0``)
    means one worker per CPU.  This is the only worker-count resolver.
    """
    raw = os.environ.get("REPRO_JOBS", "1").strip().lower() or "1"
    if raw in ("auto", "0"):
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_JOBS must be a positive integer or 'auto', got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigurationError(f"REPRO_JOBS must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class AccuracyResult:
    """Accuracy of one predictor on one trace."""

    predictor: str
    trace: str
    branches: int
    mispredictions: int
    storage_bytes: int
    #: Per-branch-site breakdown; collected only in attribution mode.
    attribution: Attribution | None = None

    @property
    def misprediction_rate(self) -> float:
        """Fraction of scored branches predicted wrongly."""
        if self.branches == 0:
            return 0.0
        return self.mispredictions / self.branches

    @property
    def misprediction_percent(self) -> float:
        """Misprediction rate as a percentage (figure units)."""
        return 100.0 * self.misprediction_rate


@dataclass(frozen=True)
class OverrideResult:
    """Accuracy and override behaviour of a quick/slow pair on one trace."""

    predictor: str
    trace: str
    branches: int
    final_mispredictions: int
    quick_mispredictions: int
    overrides: int
    storage_bytes: int
    #: Per-branch-site breakdown of *final* mispredictions (attribution mode).
    attribution: Attribution | None = None

    @property
    def misprediction_rate(self) -> float:
        """Final (slow-predictor) misprediction rate."""
        if self.branches == 0:
            return 0.0
        return self.final_mispredictions / self.branches

    @property
    def override_rate(self) -> float:
        """Fraction of branches where the slow predictor overrode the quick
        one — each of these pays the override bubble."""
        if self.branches == 0:
            return 0.0
        return self.overrides / self.branches


def _publish_result(kind: str, result, storage_bytes: int) -> None:
    """Record a finished measurement into the default metrics registry."""
    registry = obs.registry()
    registry.counter(f"{kind}.measurements").inc()
    registry.counter(f"{kind}.branches").inc(result.branches)
    if result.attribution is not None:
        key = f"{result.predictor}[{storage_bytes}B]/{result.trace}"
        registry.record_attribution(key, result.attribution.to_rows())


def measure_accuracy(
    predictor: BranchPredictor,
    trace: Trace,
    warmup_branches: int = 0,
    engine: str | None = None,
    attribution: bool | None = None,
) -> AccuracyResult:
    """Drive ``predictor`` over every conditional branch of ``trace``.

    ``warmup_branches`` branches at the head of the trace train the
    predictor without being scored (the paper skips initialization phases;
    our traces are steady-state, so the default is no warmup).

    ``engine`` selects scalar or batch evaluation (``None`` defers to
    ``REPRO_ENGINE``); both produce identical results on supported
    predictors.

    ``attribution`` additionally buckets scored mispredictions per static
    branch PC (``None`` collects exactly when observability is enabled).
    The disabled path is the untouched reference loop — profiling never
    taxes a plain measurement.
    """
    if attribution is None:
        attribution = obs.enabled()
    profiling = obs.enabled()
    started = time.perf_counter() if profiling else 0.0
    if resolve_engine(predictor, engine) == "batch":
        from repro.batch import measure_accuracy_batch

        result = measure_accuracy_batch(
            predictor, trace, warmup_branches=warmup_branches, attribution=attribution
        )
    elif attribution:
        result = _measure_accuracy_attributed(predictor, trace, warmup_branches)
    else:
        branches = 0
        mispredictions = 0
        for position, (pc, taken) in enumerate(trace.conditional_branches()):
            predictor.predict(pc)
            correct = predictor.update(pc, taken)
            if position < warmup_branches:
                continue
            branches += 1
            if not correct:
                mispredictions += 1
        result = AccuracyResult(
            predictor=predictor.name,
            trace=trace.name,
            branches=branches,
            mispredictions=mispredictions,
            storage_bytes=predictor.storage_bytes,
        )
    if profiling:
        registry = obs.registry()
        registry.timer("accuracy.seconds").observe(time.perf_counter() - started)
        registry.counter("accuracy.mispredictions").inc(result.mispredictions)
        _publish_result("accuracy", result, result.storage_bytes)
    return result


def _measure_accuracy_attributed(
    predictor: BranchPredictor, trace: Trace, warmup_branches: int
) -> AccuracyResult:
    """The scalar loop with per-PC bucketing of scored branches."""
    executions: dict[int, int] = {}
    wrong: dict[int, int] = {}
    for position, (pc, taken) in enumerate(trace.conditional_branches()):
        predictor.predict(pc)
        correct = predictor.update(pc, taken)
        if position < warmup_branches:
            continue
        executions[pc] = executions.get(pc, 0) + 1
        if not correct:
            wrong[pc] = wrong.get(pc, 0) + 1
    attribution = attribution_from_counts(predictor.name, trace.name, executions, wrong)
    return AccuracyResult(
        predictor=predictor.name,
        trace=trace.name,
        branches=attribution.branches,
        mispredictions=attribution.mispredictions,
        storage_bytes=predictor.storage_bytes,
        attribution=attribution,
    )


def measure_override(
    overriding: OverridingPredictor,
    trace: Trace,
    warmup_branches: int = 0,
    attribution: bool | None = None,
) -> OverrideResult:
    """Drive an overriding quick/slow pair over ``trace``'s branches.

    Both components run their whole direction streams
    (:meth:`OverridingPredictor.predict_stream`, on the engine
    ``REPRO_ENGINE`` resolves to), with the same results and side effects
    as a per-branch loop.

    ``attribution`` buckets scored *final* mispredictions per static branch
    PC (``None`` collects exactly when observability is enabled).
    """
    if attribution is None:
        attribution = obs.enabled()
    pcs, takens = trace.branch_arrays()
    quick, final = overriding.predict_stream(pcs, takens)
    scored_pcs = pcs[warmup_branches:]
    outcomes = takens[warmup_branches:]
    final_wrong = final[warmup_branches:] != outcomes
    branches = len(outcomes)
    final_mispredictions = int(np.count_nonzero(final_wrong))
    quick_mispredictions = int(np.count_nonzero(quick[warmup_branches:] != outcomes))
    overrides = int(np.count_nonzero(quick[warmup_branches:] != final[warmup_branches:]))
    breakdown = (
        attribution_from_arrays(overriding.name, trace.name, scored_pcs, final_wrong)
        if attribution
        else None
    )
    result = OverrideResult(
        predictor=overriding.name,
        trace=trace.name,
        branches=branches,
        final_mispredictions=final_mispredictions,
        quick_mispredictions=quick_mispredictions,
        overrides=overrides,
        storage_bytes=(overriding.storage_bits + 7) // 8,
        attribution=breakdown,
    )
    if obs.enabled():
        registry = obs.registry()
        registry.counter("override.final_mispredictions").inc(final_mispredictions)
        registry.counter("override.quick_mispredictions").inc(quick_mispredictions)
        overriding.record_stats(registry)
        _publish_result("override", result, result.storage_bytes)
    return result
