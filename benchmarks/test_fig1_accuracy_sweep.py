"""Figure 1: arithmetic-mean misprediction rate vs hardware budget for
gshare, Bi-Mode, multi-component and perceptron."""

from __future__ import annotations

from benchmarks.conftest import write_figure
from repro.harness.figures import build_figure


def test_figure1_accuracy_sweep(once):
    (figure,) = once(build_figure, "figure1")
    write_figure("figure1", [figure])

    # Shape checks (paper's Figure 1): the perceptron is the most accurate
    # family at every budget, and every family beats plain gshare at the
    # largest budget.
    budgets = figure.rows
    largest = budgets[-1]
    for budget in budgets:
        perceptron = figure.series["perceptron"][budget]
        # The perceptron and the multi-hybrid are the accuracy leaders
        # (they trade places on hard-benchmark subsets); both clearly beat
        # plain gshare.
        assert perceptron <= figure.series["gshare"][budget]
        for family in ("bimode", "multicomponent"):
            assert perceptron <= figure.series[family][budget] + 1.0
    for family in ("bimode", "multicomponent", "perceptron"):
        assert figure.series[family][largest] < figure.series["gshare"][largest]
    # Accuracy improves (or at worst saturates) from the smallest budget.
    for family in figure.series:
        assert figure.series[family][largest] <= figure.series[family][budgets[0]] + 0.5
