"""Regeneration entry points for every table and figure in the paper.

Every grid figure is defined once, in :data:`FIGURES`: a list of panels,
each a title and the :class:`~repro.harness.figconfig.GridSpec` it sweeps.
One function builds any entry (:func:`build_figure`, cells resolved
through :func:`~repro.harness.sweep.accuracy_sweep` /
:func:`~repro.harness.sweep.ipc_sweep`) and one renders it
(:func:`render_figure`).  ``repro-figures``, runner-mode configs (which
take their grids from this table and declare none), sweep and inferred
configs, the prediction service and the benchmark suite all go through
them.  Tables and the §3.2/§4.5 studies have their own functions.

All trace acquisition goes through :func:`repro.workloads.spec2000_trace`,
so with ``REPRO_TRACE_STORE`` set every figure transparently reuses the
content-addressed on-disk trace store: a warm run replays stored columnar
traces with zero generation work and byte-identical rendered output
(``scripts/trace_store_check.py`` asserts exactly this on the Figure 1
grid).

Index (see DESIGN.md for the full experiment table):

* Figure 1 — mean misprediction vs budget: gshare, Bi-Mode,
  multi-component, perceptron (2KB-512KB).
* Figure 2 — IPC of perceptron & multi-component, ideal vs overriding.
* Table 1  — simulated machine parameters.
* Table 2  — predictor access latencies.
* Figure 5 — mean misprediction, large budgets: 2Bc-gskew,
  multi-component, perceptron, gshare.fast.
* Figure 6 — per-benchmark misprediction at a 64KB-class budget.
* Figure 7 — harmonic-mean IPC vs budget, ideal (left) and overriding
  (right) for the complex predictors plus gshare.fast.
* Figure 8 — per-benchmark IPC at the ~53-64KB budget point.
* Extension — the pipelined single-cycle families, gshare.fast vs
  bimode.fast.
* §3.2     — delayed-PHT-update accuracy/IPC study.
* §4.5     — override (disagreement) rate statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.gshare_fast import build_gshare_fast
from repro.harness.aggregate import arithmetic_mean, harmonic_mean
from repro.harness.experiment import measure_accuracy
from repro.harness.figconfig import GridSpec
from repro.harness.report import format_budget, render_series_table, render_table
from repro.harness.scale import (
    accuracy_instructions,
    benchmark_names,
    ipc_instructions,
    warmup_branches,
)
from repro.harness.sweep import (
    FULL_BUDGETS,
    LARGE_BUDGETS,
    accuracy_sweep,
    hmean_ipc_by_family_budget,
    ipc_sweep,
    mean_by_family_budget,
    override_statistics,
)
from repro.timing.latency import table2 as timing_table2
from repro.uarch.config import PAPER_MACHINE
from repro.uarch.simulator import CycleSimulator
from repro.workloads.spec2000 import get_profile, spec2000_trace

#: The paper reports complex predictors at a "53KB" hardware budget; our
#: power-of-two ladder's nearest point is 64KB.
MID_BUDGET = 64 * 1024


@dataclass(frozen=True)
class Figure:
    """One grid figure: its panels, each a (title, grid) pair."""

    panels: tuple[tuple[str, GridSpec], ...]
    #: One row per benchmark plus a mean row, instead of one per budget.
    per_benchmark: bool = False


def _one(title: str, grid: GridSpec, per_benchmark: bool = False) -> Figure:
    return Figure(((title, grid),), per_benchmark)


_COMPLEX = ("2bcgskew", "multicomponent", "perceptron")
_MID_FAMILIES = ("multicomponent", "perceptron", "gshare_fast")
_LARGE = tuple(LARGE_BUDGETS)
_MID = format_budget(MID_BUDGET)

#: Every grid figure, by ``repro-figures`` target name.
FIGURES: dict[str, Figure] = {
    "figure1": _one(
        "Figure 1: arithmetic mean misprediction rate (%) on SPECint2000",
        GridSpec(
            "accuracy", ("gshare", "bimode", "multicomponent", "perceptron"),
            tuple(FULL_BUDGETS),
        ),
    ),
    "figure2": _one(
        "Figure 2: harmonic mean IPC, ideal vs overriding",
        GridSpec(
            "ipc", ("multicomponent", "perceptron"), _LARGE,
            modes=("ideal", "overriding"),
        ),
    ),
    "figure5": _one(
        "Figure 5: arithmetic mean misprediction rate (%), large budgets",
        GridSpec("accuracy", (*_COMPLEX, "gshare_fast"), _LARGE),
    ),
    "figure6": _one(
        f"Figure 6: misprediction rates (%) at a {_MID} budget",
        GridSpec("accuracy", _MID_FAMILIES, (MID_BUDGET,)),
        per_benchmark=True,
    ),
    "figure7": Figure(tuple(
        (
            f"Figure 7 ({label}): harmonic mean IPC",
            GridSpec("ipc", (*_COMPLEX, "gshare_fast"), _LARGE, modes=(mode,)),
        )
        for mode, label in (("ideal", "1-cycle (ideal)"), ("overriding", "overriding"))
    )),
    # Overriding for the complex predictors; gshare.fast is single-cycle
    # in every mode.
    "figure8": _one(
        f"Figure 8: IPC at a {_MID} budget",
        GridSpec("ipc", _MID_FAMILIES, (MID_BUDGET,), modes=("overriding",)),
        per_benchmark=True,
    ),
    # The paper's future work, measured: bimode.fast adds Bi-Mode's bias
    # separation to gshare.fast's prefetch-and-select pipeline.
    "extension": _one(
        "Extension: pipelined single-cycle families, mean misprediction (%)",
        GridSpec("accuracy", ("gshare_fast", "bimode_fast"), _LARGE),
    ),
}

#: Per grid kind: the value format, and the label of the mean row (the
#: paper's arithmetic-mean misprediction, harmonic-mean IPC) in
#: per-benchmark figures.
_KINDS = {"accuracy": ("{:.2f}", "arith.mean"), "ipc": ("{:.3f}", "harm.mean")}
#: Series suffixes when one IPC panel plots both policy modes (Figure 2).
_MODE_LABELS = {"ideal": "(no delay)", "overriding": "(overriding)"}


@dataclass
class Panel:
    """One built panel: ``series[name][row]``, where rows are budgets, or
    benchmarks in a per-benchmark figure (which also has ``means``)."""

    title: str
    kind: str
    rows: list
    per_benchmark: bool = False
    series: dict[str, dict] = field(default_factory=dict)
    means: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """Text table: one row per budget, or per benchmark plus the mean."""
        value_format, mean_label = _KINDS[self.kind]
        if not self.per_benchmark:
            return render_series_table(
                self.title, "Budget", self.rows, self.series, value_format
            )
        names = sorted(self.series)
        rows = [
            [row] + [value_format.format(self.series[name][row]) for name in names]
            for row in self.rows
        ]
        rows.append([mean_label] + [value_format.format(self.means[name]) for name in names])
        return render_table(self.title, ["benchmark", *names], rows)


def _sweep(grid: GridSpec, mode: str | None) -> tuple[list, dict]:
    """One mode of ``grid``: ``(benchmark, family, value)`` per cell, and the
    mean across benchmarks per ``(family, budget)``."""
    benchmarks = list(grid.benchmarks) if grid.benchmarks is not None else None
    if grid.kind == "accuracy":
        cells = accuracy_sweep(list(grid.families), list(grid.budgets), benchmarks=benchmarks)
        values = [(c.benchmark, c.family, c.misprediction_percent) for c in cells]
        return values, mean_by_family_budget(cells)
    cells = ipc_sweep(list(grid.families), list(grid.budgets), mode=mode, benchmarks=benchmarks)
    return [(c.benchmark, c.family, c.ipc) for c in cells], hmean_ipc_by_family_budget(cells)


def build_figure(name: str, figure: Figure | None = None) -> list[Panel]:
    """Every panel of ``figure`` (default ``FIGURES[name]``), its cells
    resolved through the sweeps under ``<name>.sweep`` spans."""
    figure = figure or FIGURES[name]
    panels = []
    for title, grid in figure.panels:
        if figure.per_benchmark:
            rows = list(grid.benchmarks if grid.benchmarks is not None else benchmark_names())
        else:
            rows = list(grid.budgets)
        panel = Panel(title, grid.kind, rows, figure.per_benchmark)
        for mode in grid.modes or (None,):
            with obs.span(f"{name}.sweep", mode=mode, budgets=len(grid.budgets)):
                values, means = _sweep(grid, mode)
            suffix = f" {_MODE_LABELS[mode]}" if len(grid.modes) > 1 else ""
            if figure.per_benchmark:
                for benchmark, family, value in values:
                    panel.series.setdefault(family + suffix, {})[benchmark] = value
            for (family, budget), mean in means.items():
                if figure.per_benchmark:
                    panel.means[family + suffix] = mean
                else:
                    panel.series.setdefault(family + suffix, {})[budget] = mean
        panels.append(panel)
    return panels


def render_figure(name: str, figure: Figure | None = None) -> str:
    """The text ``repro-figures <name>`` prints: every panel of
    :func:`build_figure`, separated by a blank line."""
    return "\n\n".join(panel.render() for panel in build_figure(name, figure))


# -- Table 1 ------------------------------------------------------------------


def table1() -> str:
    """The simulated machine parameters (Table 1)."""
    config = PAPER_MACHINE
    rows = [
        ("L1 I-cache", f"{config.l1_size // 1024} KB, {config.l1_line}-byte lines, direct mapped"),
        ("L1 D-cache", f"{config.l1_size // 1024} KB, {config.l1_line}-byte lines, direct mapped"),
        (
            "L2 cache",
            f"{config.l2_size // (1024 * 1024)} MB, {config.l2_line}-byte lines, "
            f"{config.l2_ways}-way set assoc.",
        ),
        ("BTB", f"{config.btb_entries} entry, {config.btb_ways}-way set-assoc."),
        ("Issue width", str(config.issue_width)),
        ("Pipeline depth", str(config.pipeline_depth)),
    ]
    return render_table("Table 1: simulation parameters", ["Parameter", "Configuration"], rows)


# -- Table 2 ------------------------------------------------------------------


def table2() -> str:
    """Predictor access latencies (Table 2), from the SRAM delay model."""
    rows = []
    for row in timing_table2():
        rows.append(
            (
                format_budget(row.multicomponent_budget),
                row.multicomponent_cycles,
                format_budget(row.budget),
                row.gskew_cycles,
                row.perceptron_cycles,
            )
        )
    return render_table(
        "Table 2: predictor access latencies (cycles)",
        ["MC budget", "MC delay", "Budget", "2Bc-gskew delay", "Perceptron delay"],
        rows,
    )


# -- Section 3.2: delayed update ------------------------------------------------


@dataclass
class DelayedUpdateResult:
    """Accuracy/IPC of gshare.fast across predict-to-update delays."""

    budget_bytes: int
    delays: list[int]
    misprediction_percent: dict[int, float]
    ipc: dict[int, float]

    def render(self) -> str:
        """Text table of mispredict/IPC per update delay."""
        rows = [
            (delay, f"{self.misprediction_percent[delay]:.2f}", f"{self.ipc[delay]:.3f}")
            for delay in self.delays
        ]
        return render_table(
            f"Section 3.2: delayed PHT update, {format_budget(self.budget_bytes)} gshare.fast",
            ["update delay (branches)", "mispredict %", "IPC (hmean)"],
            rows,
        )


def delayed_update_study(
    budget_bytes: int = 256 * 1024, delays: tuple[int, ...] = (0, 16, 64, 256)
) -> DelayedUpdateResult:
    """Reproduce the Section 3.2 experiment: predict-to-update distance of
    64 branches costs ~0.04pp accuracy and <1% IPC at a 256KB budget."""
    from repro.uarch.policies import SingleCyclePolicy

    benchmarks = benchmark_names()
    mispredict: dict[int, float] = {}
    ipc: dict[int, float] = {}
    for delay in delays:
        with obs.span("delayed_update.sweep", delay=delay):
            rates = []
            ipcs = []
            for benchmark in benchmarks:
                trace = spec2000_trace(benchmark, instructions=accuracy_instructions())
                predictor = build_gshare_fast(budget_bytes, update_delay=delay)
                warmup = warmup_branches(trace.conditional_branch_count)
                rates.append(
                    measure_accuracy(
                        predictor, trace, warmup_branches=warmup
                    ).misprediction_percent
                )
                ipc_trace = spec2000_trace(benchmark, instructions=ipc_instructions())
                simulator = CycleSimulator(
                    SingleCyclePolicy(build_gshare_fast(budget_bytes, update_delay=delay)),
                    ilp=get_profile(benchmark).ilp,
                )
                ipcs.append(simulator.run(ipc_trace).ipc)
            mispredict[delay] = arithmetic_mean(rates)
            ipc[delay] = harmonic_mean(ipcs)
    return DelayedUpdateResult(
        budget_bytes=budget_bytes,
        delays=list(delays),
        misprediction_percent=mispredict,
        ipc=ipc,
    )


# -- Section 4.5: override disagreement ------------------------------------------


@dataclass
class OverrideDisagreement:
    """Per-benchmark quick/slow disagreement rates for one family."""

    family: str
    budget_bytes: int
    per_benchmark: dict[str, float]

    @property
    def mean_rate(self) -> float:
        """Mean override rate across the measured benchmarks."""
        return arithmetic_mean(list(self.per_benchmark.values()))

    def render(self) -> str:
        """Text table of per-benchmark override rates."""
        rows = [(name, f"{100 * rate:.2f}") for name, rate in self.per_benchmark.items()]
        rows.append(("mean", f"{100 * self.mean_rate:.2f}"))
        return render_table(
            f"Section 4.5: override rate (%), {self.family} at "
            f"{format_budget(self.budget_bytes)}",
            ["benchmark", "override %"],
            rows,
        )


def override_disagreement(
    family: str = "perceptron", budget_bytes: int = MID_BUDGET
) -> OverrideDisagreement:
    """Reproduce Section 4.5: how often the slow predictor overrides the
    quick one (paper: perceptron avg 7.38%; multi-component on twolf
    18.1%)."""
    rates = override_statistics(family, budget_bytes)
    return OverrideDisagreement(family=family, budget_bytes=budget_bytes, per_benchmark=rates)
