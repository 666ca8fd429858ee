"""Figure 5: mean misprediction of the four large predictors (2Bc-gskew,
multi-component, perceptron, gshare.fast) at large budgets."""

from __future__ import annotations

from benchmarks.conftest import write_figure
from repro.harness.figures import build_figure


def test_figure5_large_budget_accuracy(once):
    (figure,) = once(build_figure, "figure5")
    write_figure("figure5", [figure])

    # Paper shape: the complex predictors are more accurate than
    # gshare.fast at every budget (gshare.fast trades accuracy for a
    # single-cycle pipeline), and the perceptron leads.
    for budget in figure.rows:
        fast = figure.series["gshare_fast"][budget]
        assert figure.series["perceptron"][budget] < fast
        assert figure.series["multicomponent"][budget] < fast
        assert figure.series["perceptron"][budget] <= (
            figure.series["multicomponent"][budget] + 1.0
        )
