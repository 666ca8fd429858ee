"""Figure 8: per-benchmark IPC at the mid (53-64KB) budget, overriding for
the complex predictors against single-cycle gshare.fast."""

from __future__ import annotations

from benchmarks.conftest import write_figure
from repro.harness.figures import build_figure


def test_figure8_per_benchmark_ipc(once):
    (figure,) = once(build_figure, "figure8")
    write_figure("figure8", [figure])

    # Every IPC is physical (0 < ipc < issue width) and the per-benchmark
    # spread is wide (mcf-like workloads far below eon-like ones).
    for family, values in figure.series.items():
        for benchmark, ipc in values.items():
            assert 0 < ipc < 8
    if "mcf" in figure.rows and "eon" in figure.rows:
        for family in figure.series:
            assert figure.series[family]["mcf"] < figure.series[family]["eon"]
    # The paper's point at this budget: the realistic IPCs of complex
    # predictors and gshare.fast are "about the same" — within ~15%.
    fast = figure.means["gshare_fast"]
    for family in ("multicomponent", "perceptron"):
        assert abs(figure.means[family] - fast) / fast < 0.25
