"""The benchmark's own arithmetic: percentiles, per-op minima, self-time
folding and failure accounting.

Everything here is pure (no clock, no I/O) so ``perfbench/tests`` can pin
it exactly.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Mapping

#: Percentiles a tail is chosen from, lowest to highest.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A reported tail percentile must have at least this many samples above it.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n`` samples
    (rounded first, so 99.9 of 10,000 is rank 9,990, not 9,991)."""
    return max(math.ceil(round(p * n / 100.0, 9)), 1)


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(len(sorted_values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank ``p``-th."""
    return n - _rank(n, p)


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """The highest ladder percentile with ``min_beyond`` samples beyond it
    among ``n`` samples, or None when even the median has too few."""
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= min_beyond:
            best = p
    return best


def latency_summary(values: Iterable[float]) -> dict:
    """Median and the highest percentile with enough samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"n": n, "p50": nearest_rank(ordered, 50.0) if n else math.nan}
    tail = tail_percentile(n)
    summary["tail_p"] = tail
    summary["tail"] = nearest_rank(ordered, tail) if tail is not None else math.nan
    return summary


def per_op_minimum(samples: Mapping[object, Iterable[float]]) -> dict:
    """Each op's fastest repetition.

    Repetitions of one op redo identical, deterministic work, so anything
    above the minimum is host interference, not the program.
    """
    minima = {}
    for op, times in samples.items():
        times = list(times)
        if not times:
            raise ValueError(f"op {op!r} has no timed repetition")
        minima[op] = min(times)
    return minima


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Iterable[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


def max_deviation(values: Iterable[float]) -> float:
    """Largest distance from the median, as a share of the median."""
    values = list(values)
    median = statistics.median(values)
    if not median:
        return math.inf
    return max(abs(v - median) for v in values) / median


# -- self-time folding ----------------------------------------------------------


def fold_self_times(spans: Iterable[Mapping]) -> dict[str, dict]:
    """Per-name totals of span time and self time.

    Each span is a mapping with ``id``, ``parent`` (an id or None),
    ``name`` and ``duration``, plus ``calls`` when it aggregates calls
    that ran one after another inside their parent.  Spans come from one
    thread, so a span's children never overlap: its self time is its
    duration minus theirs.
    """
    spans = list(spans)
    child_seconds: dict[object, float] = {}
    for span in spans:
        parent = span.get("parent")
        child_seconds[parent] = child_seconds.get(parent, 0.0) + float(span["duration"])
    folded: dict[str, dict] = {}
    for span in spans:
        duration = float(span["duration"])
        entry = folded.setdefault(span["name"], {"count": 0, "total": 0.0, "self": 0.0})
        entry["count"] += int(span.get("calls", 1))
        entry["total"] += duration
        entry["self"] += max(duration - child_seconds.get(span["id"], 0.0), 0.0)
    return folded


# -- failure accounting ----------------------------------------------------------


class Tally:
    """Attempted and failed ops; ``error_rate`` is failed / attempted.

    An op fails on an exception, a non-200 response or a wrong result; the
    first few reasons are kept for the report.
    """

    def __init__(self, keep: int = 5) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._keep = keep

    def record(self, problem: str | None) -> bool:
        """Count one op: it passed when ``problem`` is None."""
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.reasons) < self._keep:
            self.reasons.append(problem)
        return False

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
