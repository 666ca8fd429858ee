"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's headline figures and probe the knobs of the
gshare.fast design and the delay-hiding schemes.  Each is a
:data:`repro.harness.figures.FIGURES` entry measured on gcc:

* PHT-buffer size vs accuracy (Section 3.3.1's buffer sizing discussion);
* pipeline depth vs the override penalty (the paper's motivating trend),
  including dual-path fetch as the alternative scheme of Section 2.6.2;
* gshare history length at fixed budget;
* quick-predictor size vs disagreement rate (Section 4.1.2 grants 2K
  entries; what do 1K or 4K buy?).
"""

from __future__ import annotations

from benchmarks.conftest import write_figure
from repro.harness.figures import build_figure


def _build(once, name):
    (panel,) = once(build_figure, name)
    write_figure(name, [panel])
    return panel


def test_ablation_buffer_size(once):
    """Sweep the PHT-buffer width at fixed PHT size and latency."""
    panel = _build(once, "abl_buffer_size")
    rates = [panel.series["mispredict %"][row] for row in panel.rows]
    # All buffer sizes must function.  A wider buffer folds more PC bits
    # into the single-cycle select, so the 128-entry buffer should not be
    # worse than the paper's 8-entry one at this latency.
    assert rates[2] <= rates[0] + 0.5
    assert max(rates) - min(rates) < 10.0


def test_ablation_pipeline_depth(once):
    """Depth sweep: how pipeline depth amplifies predictor-induced bubbles
    for overriding, dual-path and gshare.fast."""
    panel = _build(once, "abl_pipeline_depth")
    # Deeper pipelines hurt everyone; dual-path never beats overriding by
    # much (it halves fetch bandwidth for the whole latency window).
    for ipcs in panel.series.values():
        assert ipcs["10"] > ipcs["40"]


def test_ablation_history_length(once):
    """Classic gshare history-length sweep at a fixed 64KB PHT — shows the
    training-dilution tradeoff that motivates GSHARE_MAX_HISTORY."""
    rates = _build(once, "abl_history_length").series["mispredict %"]
    # The dilution side of the tradeoff is robust at any scale: the longest
    # history is never the best configuration on short traces.
    assert min(rates[h] for h in ("8", "12", "14")) < rates["18"]


def test_ablation_quick_predictor_size(once):
    """Quick-predictor size vs override (disagreement) rate."""
    panel = _build(once, "abl_quick_size")
    override_rates = panel.series["override %"].values()
    final_rates = set(panel.series["final mispredict rate"].values())
    # Disagreement stays in a plausible band at every quick size, and the
    # *final* accuracy is entirely the slow predictor's — the quick
    # predictor only affects how often the override bubble is paid.
    assert all(0.02 < rate < 0.40 for rate in override_rates)
    assert len(final_rates) == 1


def test_ablation_pipelined_families(once):
    """Extension study: gshare.fast vs bimode.fast across budgets.

    Both deliver single-cycle predictions by construction; bimode.fast adds
    Bi-Mode's bias separation.  This quantifies the paper's closing
    conjecture that other predictors can be reorganized the same way.
    """
    figure = _build(once, "extension")
    # bimode.fast must beat gshare.fast at every budget while keeping the
    # same single-cycle property — the reorganization pays.
    for budget in figure.rows:
        assert figure.series["bimode_fast"][budget] < figure.series["gshare_fast"][budget]
