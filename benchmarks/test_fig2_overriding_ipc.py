"""Figure 2: ideal (zero-delay) vs realistic (overriding) IPC for the
perceptron and multi-component predictors across large budgets."""

from __future__ import annotations

from benchmarks.conftest import write_figure
from repro.harness.figures import build_figure


def test_figure2_ideal_vs_overriding(once):
    (figure,) = once(build_figure, "figure2")
    write_figure("figure2", [figure])

    budgets = figure.rows
    smallest, largest = budgets[0], budgets[-1]
    for family in ("multicomponent", "perceptron"):
        ideal = figure.series[f"{family} (no delay)"]
        real = figure.series[f"{family} (overriding)"]
        # Realistic never beats ideal, and the gap widens with budget —
        # the paper's core observation.
        for budget in budgets:
            assert real[budget] <= ideal[budget] + 1e-9
        assert (ideal[largest] - real[largest]) >= (ideal[smallest] - real[smallest]) - 1e-9
