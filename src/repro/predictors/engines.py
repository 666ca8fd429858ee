"""Engine selection: which engine turns a branch stream into predictions.

Two engines evaluate a predictor over a ``(pc, taken)`` stream with
identical results:

* ``scalar`` — the predictor's own ``predict``/``update``, branch by
  branch (the specification);
* ``batch``  — the array kernels of :mod:`repro.batch`, bit-exact with the
  scalar protocol (predictions and final ``state()``).

``auto`` (the default, overridable via ``REPRO_ENGINE``) picks batch
whenever the predictor has a kernel and scalar otherwise.  Accuracy
measurements (:func:`repro.harness.experiment.measure_accuracy`) and the
cycle simulator's direction streams resolve the engine here, so one
setting covers both.  The batch engine is imported only when a stream is
actually evaluated on it.
"""

from __future__ import annotations

import os

import numpy as np

from repro.common.errors import ConfigurationError
from repro.predictors.base import BranchPredictor

#: Valid values for the ``engine`` argument / ``REPRO_ENGINE`` variable.
ENGINES = ("auto", "scalar", "batch")


def default_engine() -> str:
    """The engine selected by ``REPRO_ENGINE`` (default ``auto``)."""
    engine = os.environ.get("REPRO_ENGINE", "auto").strip().lower() or "auto"
    if engine not in ENGINES:
        raise ConfigurationError(
            f"REPRO_ENGINE must be one of {ENGINES}, got {engine!r}"
        )
    return engine


def resolve_engine(predictor: BranchPredictor, engine: str | None = None) -> str:
    """Resolve ``engine`` (or the environment default) to scalar/batch.

    ``auto`` degrades gracefully to scalar for predictors without a batch
    kernel; asking for ``batch`` explicitly on such a predictor is an error
    rather than a silent slowdown.
    """
    if engine is None:
        engine = default_engine()
    if engine not in ENGINES:
        raise ConfigurationError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "scalar":
        return "scalar"
    from repro.batch import supports_batch  # deferred: loads the batch engine

    if supports_batch(predictor):
        return "batch"
    if engine == "batch":
        raise ConfigurationError(
            f"engine='batch' does not support {type(predictor).__name__}; "
            f"use engine='auto' or 'scalar'"
        )
    return "scalar"


def direction_stream(
    predictor: BranchPredictor, pcs: np.ndarray, takens: np.ndarray
) -> np.ndarray:
    """``predictor``'s prediction for every branch of a ``(pc, taken)``
    stream, training on each outcome in order, as a bool array — on the
    engine ``REPRO_ENGINE`` resolves to for it.

    Afterwards the predictor holds exactly the state (and stats) the scalar
    ``predict``/``update`` replay leaves, whichever engine ran.
    """
    if resolve_engine(predictor) == "batch":
        from repro.batch.engine import evaluate_stream

        return evaluate_stream(predictor, pcs, takens).predictions
    predict, update = predictor.predict, predictor.update
    predictions = []
    for pc, taken in zip(pcs.tolist(), takens.tolist()):
        predictions.append(predict(pc))
        update(pc, taken)
    return np.array(predictions, dtype=bool)
