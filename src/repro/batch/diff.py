"""Differential testing of the batch engine against the scalar reference.

The scalar ``predict``/``update`` protocol is the specification; the batch
engine is an optimization.  :func:`diff_engines` drives both from identical
fresh predictors over the same branch stream and compares

* the **per-branch prediction stream** (every branch, not aggregates), and
* the **full final state** — everything ``predictor.state()`` exposes:
  counter tables, history registers, local histories, weights, loop
  entries, selection counters, composite components, pending delayed
  updates and the running stats,

reporting the first diverging branch when they disagree.  This is the
machinery behind ``tests/test_differential_batch.py`` and is importable for
ad-hoc investigation of any future kernel.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.batch.engine import evaluate_stream
from repro.predictors.base import BranchPredictor


@dataclass
class DiffReport:
    """Outcome of one scalar-vs-batch comparison."""

    predictor: str
    branches: int
    first_divergence: int | None = None
    scalar_prediction: bool | None = None
    batch_prediction: bool | None = None
    #: One line per ``state()`` entry that differs.
    state_mismatches: list[str] = field(default_factory=list)

    @property
    def matches(self) -> bool:
        """True when streams and final state are bit-exact."""
        return self.first_divergence is None and not self.state_mismatches

    def describe(self) -> str:
        """Human-readable mismatch summary (empty marker when exact)."""
        if self.matches:
            return f"{self.predictor}: bit-exact over {self.branches} branches"
        lines = [f"{self.predictor}: DIVERGED over {self.branches} branches"]
        if self.first_divergence is not None:
            lines.append(
                f"  first prediction mismatch at branch {self.first_divergence}: "
                f"scalar={self.scalar_prediction} batch={self.batch_prediction}"
            )
        lines.extend(f"  state {entry}" for entry in self.state_mismatches)
        return "\n".join(lines)


def run_scalar(
    predictor: BranchPredictor, pcs: Sequence[int], takens: Sequence[bool]
) -> np.ndarray:
    """Reference replay: the scalar protocol, capturing every prediction."""
    predictions = np.empty(len(pcs), dtype=bool)
    for position, (pc, taken) in enumerate(zip(pcs, takens)):
        predictions[position] = predictor.predict(int(pc))
        predictor.update(int(pc), bool(taken))
    return predictions


def state_mismatches(scalar: dict, batch: dict) -> list[str]:
    """One line per entry of two ``state()`` snapshots that differs."""
    lines = []
    for name in sorted(scalar.keys() | batch.keys()):
        if name not in scalar or name not in batch:
            lines.append(f"{name!r}: only in {'scalar' if name in scalar else 'batch'}")
            continue
        want, got = scalar[name], batch[name]
        if want.shape != got.shape:
            lines.append(f"{name!r}: shape scalar={want.shape} batch={got.shape}")
        elif not np.array_equal(want, got):
            cells = np.argwhere(want != got)
            first = tuple(int(i) for i in cells[0])
            lines.append(
                f"{name!r}: {len(cells)} differing cells, first at {first} "
                f"(scalar={want[first]}, batch={got[first]})"
            )
    return lines


def diff_engines(
    make_predictor: Callable[[], BranchPredictor],
    pcs: Sequence[int],
    takens: Sequence[bool],
    chunk_branches: int = 1 << 12,
) -> DiffReport:
    """Compare scalar and batch evaluation of identically-built predictors.

    ``make_predictor`` must build a fresh, deterministic instance per call;
    the stream is replayed once through each engine.
    """
    pcs = np.asarray(pcs, dtype=np.int64)
    takens = np.asarray(takens, dtype=bool)

    scalar = make_predictor()
    scalar_predictions = run_scalar(scalar, pcs, takens)

    batch = make_predictor()
    batch_result = evaluate_stream(batch, pcs, takens, chunk_branches=chunk_branches)

    report = DiffReport(predictor=scalar.name, branches=len(pcs))

    diverging = np.nonzero(scalar_predictions != batch_result.predictions)[0]
    if len(diverging):
        first = int(diverging[0])
        report.first_divergence = first
        report.scalar_prediction = bool(scalar_predictions[first])
        report.batch_prediction = bool(batch_result.predictions[first])

    report.state_mismatches = state_mismatches(scalar.state(), batch.state())
    return report
