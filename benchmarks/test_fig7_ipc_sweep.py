"""Figure 7: harmonic-mean IPC vs budget — ideal single-cycle (left panel)
vs realistic overriding (right panel) for the complex predictors, with
gshare.fast in both panels (it is single-cycle by construction)."""

from __future__ import annotations

from benchmarks.conftest import write_figure
from repro.harness.figures import build_figure


def test_figure7_ipc_panels(once):
    left, right = once(build_figure, "figure7")
    write_figure("figure7", [left, right])

    budgets = left.rows
    smallest, largest = budgets[0], budgets[-1]

    # gshare.fast pays no override penalty: identical in both panels.
    for budget in budgets:
        assert abs(left.series["gshare_fast"][budget] - right.series["gshare_fast"][budget]) < 1e-9

    for family in ("2bcgskew", "multicomponent", "perceptron"):
        # Overriding loses IPC relative to ideal, more at larger budgets
        # where access latency (and therefore the override bubble) grows.
        assert right.series[family][largest] < left.series[family][largest]
        ideal_gain = left.series[family][largest] - left.series[family][smallest]
        real_gain = right.series[family][largest] - right.series[family][smallest]
        assert real_gain < ideal_gain + 1e-9

    # The realistic panel shows the paper's key reversal pressure: the
    # complex predictors' margin over gshare.fast shrinks once override
    # bubbles are charged.
    for family in ("2bcgskew", "multicomponent", "perceptron"):
        ideal_margin = left.series[family][largest] - left.series["gshare_fast"][largest]
        real_margin = right.series[family][largest] - right.series["gshare_fast"][largest]
        assert real_margin < ideal_margin
