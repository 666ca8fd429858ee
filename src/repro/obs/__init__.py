"""Observability layer: metrics, distributed span tracing, manifests,
run-event bus, attribution and campaign telemetry.

One import gives every layer the same instruments::

    from repro import obs

    with obs.span("figure1.sweep", engine="batch"):
        obs.counter("accuracy.measurements").inc()

Collection is off by default and the disabled path is engineered to cost
nothing measurable: measurement loops check :func:`enabled` once per call
(never per branch), and figure outputs are byte-identical either way.

Settings (:mod:`repro.common.settings`; DESIGN.md §8/§13 for the
event/manifest schema):

* ``REPRO_PROFILE`` — on enables metric + attribution collection
  (``repro-figures --profile`` pins it for the process);
* ``REPRO_LOG`` — path receiving structured JSONL run events;
* ``REPRO_VERBOSE`` — on mirrors span open/close lines on stderr.

Both flags read ``1``/``true``/``yes``/``on`` as on and
``0``/``false``/``no``/``off`` or empty as off, case-insensitive; any other
value raises ConfigurationError.

Event-log layout (``REPRO_LOG=<dir>/events.jsonl``):

* The **owning process** appends to ``events.jsonl`` itself.  Ownership is
  recorded in the internal ``REPRO_LOG_OWNER_PID`` setting by
  :func:`claim_log_ownership` (the sweep executor and the figures CLI
  both claim before any fan-out).
* Every **other process** that inherits ``REPRO_LOG`` — a local campaign
  worker, chiefly — sees a foreign owner PID and appends to its own
  per-PID sidecar ``events.jsonl.<pid>`` instead, so concurrent writers
  never interleave records inside one file.
* When a ``--jobs N`` sweep finishes, the parent merges all worker sidecars back
  into the main file, timestamp-ordered
  (:func:`repro.obs.events.collect_worker_events`), and deletes them.
  Leftover sidecars from a crashed run are still read by
  :func:`repro.obs.events.read_run_events`, so telemetry survives an
  unclean shutdown.  Pointing ``REPRO_LOG`` inside ``--run-dir`` keeps the
  whole trail under the run directory.

Every span carries a ``trace_id``/``span_id``/``parent_id`` context;
workers adopt the parent's context (:func:`adopt_context`), so
:mod:`repro.obs.aggregate` reconstructs one cross-process span tree per
run and ``repro-stats timeline | flame | critical-path | stores | regress``
render it.
"""

from __future__ import annotations

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    enabled,
    enabled_override,
    render_snapshot,
    set_enabled,
)
from repro.obs.tracing import (
    adopt_context,
    claim_log_ownership,
    current_context,
    default_registry,
    event_sink,
    last_trace_id,
    log_event,
    set_verbose,
    span,
    tracing_active,
    verbose,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "adopt_context",
    "claim_log_ownership",
    "counter",
    "current_context",
    "default_registry",
    "enabled",
    "enabled_override",
    "event_sink",
    "gauge",
    "histogram",
    "last_trace_id",
    "log_event",
    "registry",
    "render_snapshot",
    "reset",
    "set_enabled",
    "set_verbose",
    "span",
    "timer",
    "tracing_active",
    "verbose",
]


def registry() -> MetricsRegistry:
    """The process-global default registry."""
    return default_registry()


def counter(name: str) -> Counter:
    """Get/create a counter on the default registry."""
    return default_registry().counter(name)


def gauge(name: str) -> Gauge:
    """Get/create a gauge on the default registry."""
    return default_registry().gauge(name)


def timer(name: str) -> Timer:
    """Get/create a timer on the default registry."""
    return default_registry().timer(name)


def histogram(name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
    """Get/create a fixed-bucket histogram on the default registry."""
    return default_registry().histogram(name, bounds)


def reset() -> None:
    """Clear every instrument on the default registry."""
    default_registry().reset()
