"""Section 4.5: how often the slow predictor overrides the quick one.

Paper: the perceptron overrides its quick predictor 7.38% of the time on
average; the multi-component predictor disagrees on 18.1% of twolf's
branches.  Every override pays a bubble equal to the slow predictor's
access latency — the mechanism that erases the complex predictors' ideal
advantage.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.harness.figures import MID_BUDGET, override_disagreement


def test_override_disagreement_rates(once):
    perceptron = once(override_disagreement, "perceptron", MID_BUDGET)
    multicomponent = override_disagreement("multicomponent", MID_BUDGET)
    write_result("override", perceptron.render() + "\n\n" + multicomponent.render())

    # Mean disagreement is a sizeable single-digit-to-teens percentage.
    assert 0.02 < perceptron.mean_rate < 0.30
    assert 0.02 < multicomponent.mean_rate < 0.30
    # Hard benchmarks disagree far more than easy ones (twolf vs vortex).
    if "twolf" in perceptron.per_benchmark and "vortex" in perceptron.per_benchmark:
        assert (
            multicomponent.per_benchmark["twolf"] > multicomponent.per_benchmark["vortex"]
        )
