"""Regeneration entry points for every table, figure and study in the paper.

Every figure, study and ablation is defined once, in :data:`FIGURES`: a
list of panels, each a title and the
:class:`~repro.harness.figconfig.GridSpec` grids whose cells it reads.
One function builds any entry (:func:`build_figure`: every grid runs
through :func:`~repro.harness.sweep.sweep_grid`, the one executor) and one
renders it (:func:`render_figure`).  A study panel (the §3.2/§4.5 studies
and the ablations) declares its table: a row header, one row per variant
or per benchmark, and its columns in order; rendering reads only built
cells.  ``repro-figures``, runner-mode configs (which take their grids
from this table and declare none), sweep and inferred configs, the
prediction service and the benchmark suite all go through them.  The two
tables have their own functions and no grid.

All trace acquisition goes through :func:`repro.workloads.spec2000_trace`,
so with ``REPRO_TRACE_STORE`` set every figure transparently reuses the
content-addressed on-disk trace store: a warm run replays stored columnar
traces with zero generation work and byte-identical rendered output
(``scripts/drill.py trace-store`` asserts exactly this on the Figure 1
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
* §3.2     — delayed-PHT-update accuracy/IPC study (``delayed-update``).
* §4.5     — override (disagreement) rate statistics (``override``).
* Ablations — gshare.fast's PHT-buffer width, gshare's history length,
  pipeline depth under overriding and dual-path fetch, and the quick
  predictor's size (``abl_*``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.harness.aggregate import arithmetic_mean, harmonic_mean
from repro.harness.figconfig import GridSpec, Variant
from repro.harness.report import format_budget, render_series_table, render_table
from repro.harness.scale import benchmark_names
from repro.harness.sweep import FULL_BUDGETS, LARGE_BUDGETS, sweep_grid
from repro.timing.latency import table2 as timing_table2
from repro.uarch.config import PAPER_MACHINE

#: The paper reports complex predictors at a "53KB" hardware budget; our
#: power-of-two ladder's nearest point is 64KB.
MID_BUDGET = 64 * 1024


@dataclass(frozen=True)
class Column:
    """One declared study column: its header, the series it reads (a family
    in a policy mode), the payload value it shows (default: its grid
    kind's) and how a value prints after multiplying it by ``scale``."""

    header: str
    family: str
    mode: str = ""
    value: str = ""
    format: str = "{:.2f}"
    scale: int = 1


@dataclass(frozen=True)
class PanelSpec:
    """One declared panel: its title and the grids it reads.  A study
    panel also declares its row header and its columns in order; its rows
    are the grids' variants, or the benchmarks in a per-benchmark figure.
    Without columns, a panel has one column per series."""

    title: str
    grids: tuple[GridSpec, ...]
    row_header: str = ""
    columns: tuple[Column, ...] = ()


@dataclass(frozen=True)
class Figure:
    """One figure or study: its panels."""

    panels: tuple[PanelSpec, ...]
    #: One row per benchmark plus a mean row, instead of one per budget.
    per_benchmark: bool = False

    @property
    def grids(self) -> tuple[GridSpec, ...]:
        """Every panel's grids, in order."""
        return tuple(grid for panel in self.panels for grid in panel.grids)


def _one(title: str, grid: GridSpec, per_benchmark: bool = False) -> Figure:
    return Figure((PanelSpec(title, (grid,)),), per_benchmark)


def _study(title: str, grids: tuple[GridSpec, ...], row_header: str, *columns: Column) -> Figure:
    return Figure((PanelSpec(title, grids, row_header, columns),))


def _variants(target: str, name: str, values: tuple[int, ...]) -> tuple[Variant, ...]:
    """One variant per value of one field, labelled by the value."""
    return tuple(Variant(str(value), ((target, name, value),)) for value in values)


_COMPLEX = ("2bcgskew", "multicomponent", "perceptron")
_MID_FAMILIES = ("multicomponent", "perceptron", "gshare_fast")
_LARGE = tuple(LARGE_BUDGETS)
_MID = format_budget(MID_BUDGET)
_256K = 256 * 1024
#: Section 3.2's predict-to-update distances (branches).
_DELAYS = _variants("config", "update_delay", (0, 16, 64, 256))
_DEPTHS = _variants("machine", "pipeline_depth", (10, 20, 40))
#: PHT-buffer widths at latency 7, labelled by the buffer's entries.
_BUFFERS = tuple(
    Variant(str(1 << bits), (("config", "pht_latency", 7), ("config", "buffer_bits", bits)))
    for bits in (3, 5, 7, 10)
)
#: The ablations measure one benchmark.
_GCC = ("gcc",)

#: Every figure and study, by ``repro-figures`` target name.
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
        PanelSpec(
            f"Figure 7 ({label}): harmonic mean IPC",
            (GridSpec("ipc", (*_COMPLEX, "gshare_fast"), _LARGE, modes=(mode,)),),
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
    # Section 3.2: a 64-branch predict-to-update distance costs ~0.04pp
    # accuracy and <1% IPC at a 256KB budget.
    "delayed-update": _study(
        f"Section 3.2: delayed PHT update, {format_budget(_256K)} gshare.fast",
        (
            GridSpec("accuracy", ("gshare_fast",), (_256K,), variants=_DELAYS),
            GridSpec("ipc", ("gshare_fast",), (_256K,), modes=("ideal",), variants=_DELAYS),
        ),
        "update delay (branches)",
        Column("mispredict %", "gshare_fast"),
        Column("IPC (hmean)", "gshare_fast", "ideal", format="{:.3f}"),
    ),
    # Section 4.5: how often the slow predictor overrides the quick one
    # (paper: perceptron avg 7.38%; multi-component on twolf 18.1%).
    "override": Figure(
        tuple(
            PanelSpec(
                f"Section 4.5: override rate (%), {family} at {_MID}",
                (GridSpec("override", (family,), (MID_BUDGET,)),),
                "benchmark",
                (Column("override %", family, scale=100),),
            )
            for family in ("perceptron", "multicomponent")
        ),
        per_benchmark=True,
    ),
    # Section 3.3.1's buffer sizing: a wider buffer folds more PC bits into
    # the single-cycle select.
    "abl_buffer_size": _study(
        "Ablation: gshare.fast PHT-buffer size (64KB PHT, latency 7)",
        (
            GridSpec("accuracy", ("gshare_fast",), (MID_BUDGET,), _GCC, variants=_BUFFERS),
        ),
        "buffer entries",
        Column("mispredict %", "gshare_fast"),
    ),
    # The training-dilution tradeoff behind GSHARE_MAX_HISTORY.
    "abl_history_length": _study(
        "Ablation: gshare history length at 64KB (gcc)",
        (
            GridSpec(
                "accuracy", ("gshare",), (MID_BUDGET,), _GCC,
                variants=_variants("config", "history_length", (4, 8, 12, 14, 18)),
            ),
        ),
        "history bits",
        Column("mispredict %", "gshare"),
    ),
    # How pipeline depth amplifies predictor-induced bubbles, with
    # dual-path fetch as Section 2.6.2's alternative to overriding.
    "abl_pipeline_depth": _study(
        "Ablation: pipeline depth vs IPC (256KB predictors, gcc)",
        (
            GridSpec("ipc", ("gshare_fast",), (_256K,), _GCC, ("ideal",), _DEPTHS),
            GridSpec("ipc", ("perceptron",), (_256K,), _GCC, ("overriding", "dualpath"), _DEPTHS),
        ),
        "depth",
        Column("gshare.fast", "gshare_fast", "ideal", format="{:.3f}"),
        Column("perceptron overriding", "perceptron", "overriding", format="{:.3f}"),
        Column("perceptron dual-path", "perceptron", "dualpath", format="{:.3f}"),
    ),
    # Section 4.1.2 grants a 2K-entry quick predictor; what do 1K-8K buy?
    "abl_quick_size": _study(
        "Ablation: quick-predictor size vs override rate (perceptron slow, gcc)",
        (
            GridSpec(
                "override", ("perceptron",), (MID_BUDGET,), _GCC,
                variants=_variants("quick", "entries", (1024, 2048, 4096, 8192)),
            ),
        ),
        "quick entries",
        Column("override %", "perceptron", scale=100),
        Column("final mispredict rate", "perceptron", value="misprediction_rate", format="{:.4f}"),
    ),
}

#: Per cell kind: the payload value a panel reads, how it averages over
#: benchmarks (the paper's arithmetic-mean misprediction, harmonic-mean
#: IPC), the value format and the per-benchmark mean row's label.
_KINDS = {
    "accuracy": ("misprediction_percent", arithmetic_mean, "{:.2f}", "arith.mean"),
    "ipc": ("ipc", harmonic_mean, "{:.3f}", "harm.mean"),
    "override": ("override_rate", arithmetic_mean, "{:.4f}", "mean"),
}
#: Series suffixes when one IPC panel plots several policy modes (Figure 2).
_MODE_LABELS = {"ideal": "(no delay)", "overriding": "(overriding)", "dualpath": "(dual-path)"}


@dataclass
class Panel:
    """One built panel: ``series[name][row]``, where names are series (or a
    study's column headers) and rows are budgets, variant labels, or
    benchmarks in a per-benchmark figure (which also has ``means``)."""

    title: str
    kind: str
    rows: list
    per_benchmark: bool = False
    series: dict[str, dict] = field(default_factory=dict)
    means: dict[str, float] = field(default_factory=dict)
    spec: PanelSpec | None = None

    def render(self) -> str:
        """Text table: one row per budget, variant, or benchmark plus the
        mean; a study's declared columns, else one column per series."""
        value_format, mean_label = _KINDS[self.kind][2:]
        if self.spec is not None and self.spec.columns:
            row_header = self.spec.row_header
            columns = [(c.header, c.format, c.scale) for c in self.spec.columns]
        elif self.per_benchmark:
            row_header = "benchmark"
            columns = [(name, value_format, 1) for name in sorted(self.series)]
        else:
            return render_series_table(self.title, "Budget", self.rows, self.series, value_format)
        rows = [
            [row] + [fmt.format(scale * self.series[name][row]) for name, fmt, scale in columns]
            for row in self.rows
        ]
        if self.per_benchmark:
            means = [fmt.format(scale * self.means[name]) for name, fmt, scale in columns]
            rows.append([mean_label, *means])
        return render_table(self.title, [row_header, *(c[0] for c in columns)], rows)


def build_figure(name: str, figure: Figure | None = None) -> list[Panel]:
    """Every panel of ``figure`` (default ``FIGURES[name]``), its cells
    resolved through the one executor under ``<name>.sweep`` spans."""
    figure = figure or FIGURES[name]
    panels = []
    for spec in figure.panels:
        first = spec.grids[0]
        if figure.per_benchmark:
            rows = list(first.benchmarks if first.benchmarks is not None else benchmark_names())
        elif spec.columns:
            rows = [variant.label for variant in first.variants]
        else:
            rows = list(first.budgets)
        panel = Panel(spec.title, first.kind, rows, figure.per_benchmark, spec=spec)
        for grid in spec.grids:
            value, mean = _KINDS[grid.kind][:2]
            labels = {variant.key: variant.label for variant in grid.variants}
            for mode in grid.modes or ("",):
                with obs.span(f"{name}.sweep", mode=mode or None, budgets=len(grid.budgets)):
                    cells = sweep_grid(grid, mode)
                # Without declared columns, one per family (with a mode
                # suffix when the grid plots several modes).
                suffix = f" {_MODE_LABELS[mode]}" if len(grid.modes) > 1 else ""
                columns = spec.columns or [
                    Column(family + suffix, family, mode) for family in grid.families
                ]
                # Benchmarks average per (column, budget or variant row).
                groups: dict[tuple[str, object], list[float]] = {}
                for shard, payload in cells:
                    row = labels.get(shard.variant, shard.budget_bytes)
                    for column in columns:
                        if (column.family, column.mode) != (shard.family, mode):
                            continue
                        cell = payload[column.value or value]
                        if figure.per_benchmark:
                            panel.series.setdefault(column.header, {})[shard.benchmark] = cell
                        groups.setdefault((column.header, row), []).append(cell)
                for (header, row), values in groups.items():
                    if figure.per_benchmark:
                        panel.means[header] = mean(values)
                    else:
                        panel.series.setdefault(header, {})[row] = mean(values)
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
