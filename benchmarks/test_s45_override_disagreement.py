"""Section 4.5: how often the slow predictor overrides the quick one.

Paper: the perceptron overrides its quick predictor 7.38% of the time on
average; the multi-component predictor disagrees on 18.1% of twolf's
branches.  Every override pays a bubble equal to the slow predictor's
access latency — the mechanism that erases the complex predictors' ideal
advantage.
"""

from __future__ import annotations

from benchmarks.conftest import write_figure
from repro.harness.figures import build_figure


def test_override_disagreement_rates(once):
    perceptron, multicomponent = once(build_figure, "override")
    write_figure("override", [perceptron, multicomponent])

    # Mean disagreement is a sizeable single-digit-to-teens percentage.
    assert 0.02 < perceptron.means["override %"] < 0.30
    assert 0.02 < multicomponent.means["override %"] < 0.30
    # Hard benchmarks disagree far more than easy ones (twolf vs vortex).
    if "twolf" in perceptron.rows and "vortex" in perceptron.rows:
        rates = multicomponent.series["override %"]
        assert rates["twolf"] > rates["vortex"]
