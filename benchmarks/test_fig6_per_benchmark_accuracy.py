"""Figure 6: per-benchmark misprediction rates at the mid (53-64KB)
budget for the complex predictors and gshare.fast."""

from __future__ import annotations

from benchmarks.conftest import write_figure
from repro.harness.figures import build_figure
from repro.harness.scale import benchmark_names


def test_figure6_per_benchmark(once):
    (figure,) = once(build_figure, "figure6")
    write_figure("figure6", [figure])

    assert figure.rows == benchmark_names()
    # Mean ordering matches the paper: complex predictors beat gshare.fast.
    assert figure.means["perceptron"] < figure.means["gshare_fast"]
    assert figure.means["multicomponent"] < figure.means["gshare_fast"]
    # The hard benchmarks are hard for everyone (twolf worst-or-near-worst,
    # when the full benchmark list is in play).
    if "twolf" in figure.rows and "vortex" in figure.rows:
        for family in figure.series:
            assert figure.series[family]["twolf"] > figure.series[family]["vortex"]
