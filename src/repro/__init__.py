"""repro — reproduction of "Reconsidering Complex Branch Predictors"
(Daniel A. Jiménez, HPCA 2003).

A latency-aware branch-prediction study kit:

* :mod:`repro.predictors` — every baseline predictor the paper evaluates
  (bimodal, gshare, Bi-Mode, 2Bc-gskew, local, EV6 tournament, perceptron,
  multi-component hybrid) with budget-driven sizing;
* :mod:`repro.core` — the paper's contribution: the pipelined single-cycle
  gshare.fast predictor, its cycle-accurate pipeline model, and the
  overriding / dual-path delay-hiding schemes it competes against;
* :mod:`repro.timing` — the 8 FO4 clock and CACTI-style SRAM delay model
  behind Table 2's predictor access latencies;
* :mod:`repro.uarch` — a cycle-level superscalar processor model that turns
  predictor behaviour into IPC;
* :mod:`repro.workloads` — synthetic SPECint-2000 stand-in programs whose
  executed control flow drives every experiment;
* :mod:`repro.harness` — sweeps, aggregation and the per-figure/table
  regeneration entry points.

Quick start::

    from repro import build_predictor, build_gshare_fast, measure_accuracy
    from repro.workloads import spec2000_trace

    trace = spec2000_trace("gcc", branches=100_000)
    fast = build_gshare_fast(64 * 1024)
    result = measure_accuracy(fast, trace)
    print(result.misprediction_rate)
"""

from repro.core import GshareFastPredictor, OverridingPredictor, build_gshare_fast
from repro.harness.experiment import measure_accuracy, measure_override
from repro.predictors import (
    BranchPredictor,
    FamilySpec,
    build_predictor,
    family_names,
)
from repro.timing import PAPER_CLOCK, predictor_latency

__version__ = "1.0.0"

__all__ = [
    "BranchPredictor",
    "FamilySpec",
    "GshareFastPredictor",
    "OverridingPredictor",
    "PAPER_CLOCK",
    "__version__",
    "build_gshare_fast",
    "build_predictor",
    "family_names",
    "measure_accuracy",
    "measure_override",
    "predictor_latency",
]
