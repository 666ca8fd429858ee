"""Vectorized batch prediction engine.

Evaluates every registered predictor family over whole traces with NumPy
array kernels instead of the branch-at-a-time scalar protocol (how each
family is batched: :mod:`repro.batch.engine`).  The engine is *bit-exact*
against the scalar reference — same per-branch prediction stream, same
full final state (``predictor.state()``) — which :mod:`repro.batch.diff`
checks and ``tests/test_differential_batch.py`` enforces.

Entry points:

* :func:`repro.batch.engine.measure_accuracy_batch` — drop-in replacement
  for the scalar :func:`repro.harness.experiment.measure_accuracy`;
* :func:`repro.batch.engine.supports_batch` — which predictors have a
  batch kernel;
* :func:`repro.predictors.engines.direction_stream` — a predictor's
  prediction stream on whichever engine resolution picks (the cycle
  simulator's and ``measure_override``'s way in);
* :func:`repro.batch.diff.diff_engines` — the differential checker.
"""

from repro.batch.diff import DiffReport, diff_engines
from repro.batch.engine import (
    BatchResult,
    evaluate_stream,
    evaluate_trace,
    measure_accuracy_batch,
    supports_batch,
)

__all__ = [
    "BatchResult",
    "DiffReport",
    "diff_engines",
    "evaluate_stream",
    "evaluate_trace",
    "measure_accuracy_batch",
    "supports_batch",
]
