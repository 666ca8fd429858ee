"""Per-branch-site analysis tools.

Beyond aggregate misprediction rates, predictor studies live and die on
*where* the mispredictions come from.  This module provides the diagnostics
a user needs to understand a predictor/workload pair:

* :func:`per_site_accuracy` — mispredictions broken down by static branch
  site, sorted by contribution;
* :func:`compare_predictors` — per-site win/loss comparison between two
  predictors on the same trace;
* :func:`history_context_profile` — how many distinct (site, history)
  contexts a trace exposes and how often each repeats: the training-density
  diagnostic that explains table-predictor behaviour at small trace scales.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bits import mask
from repro.predictors.base import BranchPredictor
from repro.workloads.trace import ColumnarTrace


@dataclass(frozen=True)
class SiteAccuracy:
    """Accuracy of one static branch site."""

    pc: int
    executions: int
    mispredictions: int
    taken_rate: float

    @property
    def misprediction_rate(self) -> float:
        """This site's own misprediction rate."""
        if self.executions == 0:
            return 0.0
        return self.mispredictions / self.executions


def per_site_accuracy(
    predictor: BranchPredictor, trace: ColumnarTrace, top: int | None = None
) -> list[SiteAccuracy]:
    """Drive ``predictor`` over ``trace`` and break accuracy down by site.

    Returns sites sorted by absolute misprediction contribution (largest
    first), optionally truncated to the ``top`` offenders.
    """
    executions: dict[int, int] = {}
    wrong: dict[int, int] = {}
    taken_count: dict[int, int] = {}
    for pc, taken in trace.conditional_branches():
        predictor.predict(pc)
        correct = predictor.update(pc, taken)
        executions[pc] = executions.get(pc, 0) + 1
        taken_count[pc] = taken_count.get(pc, 0) + int(taken)
        if not correct:
            wrong[pc] = wrong.get(pc, 0) + 1
    sites = [
        SiteAccuracy(
            pc=pc,
            executions=executions[pc],
            mispredictions=wrong.get(pc, 0),
            taken_rate=taken_count[pc] / executions[pc],
        )
        for pc in executions
    ]
    sites.sort(key=lambda site: site.mispredictions, reverse=True)
    if top is not None:
        sites = sites[:top]
    return sites


@dataclass(frozen=True)
class SiteComparison:
    """Head-to-head result for one site."""

    pc: int
    executions: int
    mispredictions_a: int
    mispredictions_b: int

    @property
    def delta(self) -> int:
        """Positive when predictor B mispredicts less than A here."""
        return self.mispredictions_a - self.mispredictions_b


def compare_predictors(
    predictor_a: BranchPredictor, predictor_b: BranchPredictor, trace: ColumnarTrace
) -> list[SiteComparison]:
    """Run both predictors on ``trace`` and compare per site, sorted by the
    absolute size of the disagreement."""
    sites_a = {site.pc: site for site in per_site_accuracy(predictor_a, trace)}
    sites_b = {site.pc: site for site in per_site_accuracy(predictor_b, trace)}
    comparisons = [
        SiteComparison(
            pc=pc,
            executions=sites_a[pc].executions,
            mispredictions_a=sites_a[pc].mispredictions,
            mispredictions_b=sites_b[pc].mispredictions,
        )
        for pc in sites_a
    ]
    comparisons.sort(key=lambda c: abs(c.delta), reverse=True)
    return comparisons


@dataclass(frozen=True)
class ContextProfile:
    """Training-density profile of a trace under a history length."""

    history_bits: int
    branches: int
    contexts: int  # distinct (site, history) pairs

    @property
    def visits_per_context(self) -> float:
        """Mean trainings each context receives; ~2 or less means a
        two-bit-counter predictor spends most of its time cold."""
        if self.contexts == 0:
            return 0.0
        return self.branches / self.contexts

    @property
    def cold_fraction(self) -> float:
        """Fraction of dynamic branches that are a context's first visit."""
        if self.branches == 0:
            return 0.0
        return self.contexts / self.branches


def history_context_profile(trace: ColumnarTrace, history_bits: int = 14) -> ContextProfile:
    """Count distinct (site, global-history) contexts in ``trace``.

    This is the quantity that controls how well gshare-style predictors can
    train at a given trace length — the scale diagnostic discussed in
    EXPERIMENTS.md.
    """
    history = 0
    contexts: set[tuple[int, int]] = set()
    branches = 0
    history_mask = mask(history_bits)
    for pc, taken in trace.conditional_branches():
        contexts.add((pc, history))
        branches += 1
        history = ((history << 1) | int(taken)) & history_mask
    return ContextProfile(
        history_bits=history_bits, branches=branches, contexts=len(contexts)
    )
