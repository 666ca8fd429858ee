"""Metrics registry: counters, gauges, timers and fixed-bucket histograms.

The registry is the in-process sink for every instrumentation point in the
repo (measurement loops, the overriding wrapper, the cycle simulator, the
batch engine's chunk kernels).  A process-global default instance is shared
by all of them; code records into it only when observability is *enabled*,
so the disabled path costs exactly one boolean/env check per measurement —
never per branch.

Enablement is three-state: ``set_enabled(True/False)`` pins it for the
process (the ``--profile`` flag does this), while the default ``None``
defers to the ``REPRO_PROFILE`` environment variable, so long-running
sweeps can be profiled without touching any call site.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError

#: Default fixed bucket upper bounds (seconds) for duration histograms.
DEFAULT_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0)

#: Accepted spellings of an on/off environment flag (case-insensitive,
#: surrounding blanks ignored; unset reads as off).
_FLAG_OFF = ("", "0", "false", "no", "off")
_FLAG_ON = ("1", "true", "yes", "on")

_enabled: bool | None = None


def env_flag(name: str) -> bool:
    """The on/off environment flag ``name``; any spelling outside
    :data:`_FLAG_ON`/:data:`_FLAG_OFF` raises ConfigurationError."""
    raw = os.environ.get(name, "")
    value = raw.strip().lower()
    if value in _FLAG_OFF:
        return False
    if value in _FLAG_ON:
        return True
    raise ConfigurationError(
        f"{name}={raw!r} is not an on/off flag (on: {', '.join(_FLAG_ON)}; "
        f"off: {', '.join(_FLAG_OFF[1:])} or empty)"
    )


def enabled() -> bool:
    """True when metrics/attribution collection is on (flag or env)."""
    if _enabled is None:
        return env_flag("REPRO_PROFILE")
    return _enabled


def set_enabled(value: bool | None) -> None:
    """Pin collection on/off, or ``None`` to defer to ``REPRO_PROFILE``."""
    global _enabled
    _enabled = value


def enabled_override() -> bool | None:
    """The raw tri-state pin (for callers that save/restore it)."""
    return _enabled


@dataclass
class Counter:
    """A monotonically increasing integer metric."""

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1)."""
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time float metric (last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


@dataclass
class Timer:
    """Aggregated durations: count, total, min, max (seconds)."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    min_seconds: float = float("inf")
    max_seconds: float = 0.0

    def observe(self, seconds: float) -> None:
        """Record one duration."""
        self.count += 1
        self.total_seconds += seconds
        if seconds < self.min_seconds:
            self.min_seconds = seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    @property
    def mean_seconds(self) -> float:
        """Mean duration (0.0 before any observation)."""
        if self.count == 0:
            return 0.0
        return self.total_seconds / self.count


@dataclass
class Histogram:
    """Fixed-bucket histogram; bucket i counts values <= bounds[i], with an
    implicit overflow bucket above the last bound."""

    name: str
    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one sample into its bucket."""
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value

    @property
    def count(self) -> int:
        """Total samples across all buckets."""
        return sum(self.counts)


class MetricsRegistry:
    """Named metric instruments plus per-branch attribution tables.

    Instruments are create-on-first-use (``registry.counter("x").inc()``),
    so instrumentation points need no setup.  ``snapshot()`` returns a
    JSON-serializable dict (the form embedded in run manifests) and
    ``render()``/``render_snapshot`` print the same data as aligned text
    tables.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.timers: dict[str, Timer] = {}
        self.histograms: dict[str, Histogram] = {}
        #: Attribution tables keyed by "predictor/trace": top-N rows of
        #: {pc, executions, mispredictions} dicts.
        self.attributions: dict[str, list[dict]] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def timer(self, name: str) -> Timer:
        """Get or create the timer ``name``."""
        instrument = self.timers.get(name)
        if instrument is None:
            instrument = self.timers[name] = Timer(name)
        return instrument

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the histogram ``name`` (bounds fixed at creation)."""
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name, bounds=tuple(bounds))
        return instrument

    def record_attribution(self, key: str, rows: list[dict]) -> None:
        """Store (replace) an attribution table under ``key``."""
        self.attributions[key] = rows

    def reset(self) -> None:
        """Drop every instrument and attribution table."""
        self.counters.clear()
        self.gauges.clear()
        self.timers.clear()
        self.histograms.clear()
        self.attributions.clear()

    def snapshot(self) -> dict:
        """JSON-serializable dump of every instrument."""
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "timers": {
                name: {
                    "count": t.count,
                    "total_seconds": t.total_seconds,
                    "mean_seconds": t.mean_seconds,
                    "min_seconds": t.min_seconds if t.count else 0.0,
                    "max_seconds": t.max_seconds,
                }
                for name, t in sorted(self.timers.items())
            },
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "total": h.total,
                }
                for name, h in sorted(self.histograms.items())
            },
            "attributions": {key: rows for key, rows in sorted(self.attributions.items())},
        }

    def render(self) -> str:
        """The live registry as aligned text tables."""
        return render_snapshot(self.snapshot())


def render_snapshot(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as text tables.

    Used both for ``repro-figures --profile`` (live registry) and for
    ``repro-stats show`` (metrics embedded in a manifest).
    """
    from repro.harness.report import render_table  # deferred: layering

    sections: list[str] = []
    counters = snapshot.get("counters") or {}
    if counters:
        sections.append(
            render_table(
                "Counters", ["name", "value"], [(n, v) for n, v in counters.items()]
            )
        )
    gauges = snapshot.get("gauges") or {}
    if gauges:
        sections.append(
            render_table(
                "Gauges", ["name", "value"], [(n, f"{v:g}") for n, v in gauges.items()]
            )
        )
    timers = snapshot.get("timers") or {}
    if timers:
        rows = [
            (
                name,
                t["count"],
                f"{t['total_seconds']:.3f}",
                f"{1e3 * t['mean_seconds']:.2f}",
                f"{1e3 * t['min_seconds']:.2f}",
                f"{1e3 * t['max_seconds']:.2f}",
            )
            for name, t in timers.items()
        ]
        sections.append(
            render_table(
                "Timers",
                ["name", "count", "total s", "mean ms", "min ms", "max ms"],
                rows,
            )
        )
    histograms = snapshot.get("histograms") or {}
    if histograms:
        rows = []
        for name, h in histograms.items():
            labels = [f"<={b:g}" for b in h["bounds"]] + ["inf"]
            cells = " ".join(
                f"{label}:{count}"
                for label, count in zip(labels, h["counts"])
                if count
            )
            rows.append((name, sum(h["counts"]), cells or "-"))
        sections.append(render_table("Histograms", ["name", "count", "buckets"], rows))
    for key, attribution_rows in (snapshot.get("attributions") or {}).items():
        rows = [
            (
                f"{row['pc']:#x}",
                row["executions"],
                row["mispredictions"],
                f"{100.0 * row['mispredictions'] / max(row['executions'], 1):.1f}",
            )
            for row in attribution_rows
        ]
        sections.append(
            render_table(
                f"Hard-to-predict branches: {key}",
                ["pc", "executions", "mispredictions", "rate %"],
                rows,
            )
        )
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)
