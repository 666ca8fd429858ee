"""Span tracing: nested wall-time scopes with distributed-trace context.

A *span* wraps one phase of a run (a figure, a sweep, one shard in a
worker process).  Every active span carries a **span context** —
``trace_id`` (shared by every span of one run), ``span_id`` (unique per
span) and ``parent_id`` (the enclosing span, possibly in another
process) — so the JSONL event stream reconstructs into a single
cross-process tree (:mod:`repro.obs.aggregate`).

Closing a span:

* records its duration into the default registry's ``span.<name>`` timer
  (when collection is enabled) — these timers are the per-phase timings a
  run manifest reports;
* appends ``span_open`` / ``span`` JSON events to the event sink derived
  from the ``REPRO_LOG`` setting (see :mod:`repro.obs` for
  the per-PID sidecar layout), so long sweeps leave a machine-readable
  trail;
* mirrors a human-readable line to stderr when verbose (``--verbose`` or
  ``REPRO_VERBOSE``) — the progress feed for otherwise-silent sweeps.

Cross-process propagation: the parent serializes :func:`current_context`
into the payload it ships to each worker; the worker calls
:func:`adopt_context` so its spans parent to the remote run span.  The
internal ``REPRO_LOG_OWNER_PID`` setting (held by a
:func:`claim_log_ownership` block around any fan-out) routes any
non-owning process to a per-PID sidecar file, so concurrent writers never
interleave inside one file.

When no sink is active, ``span`` yields a no-op handle without touching
the clock, so the fully-disabled path stays free.
"""

from __future__ import annotations

import json
import os
import secrets
import sys
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.common import settings
from repro.obs.events import EVENT_SCHEMA
from repro.obs.registry import MetricsRegistry, enabled

#: Process-global default registry shared by every instrumentation point.
DEFAULT_REGISTRY = MetricsRegistry()

_verbose: bool | None = None


class _ThreadState(threading.local):
    """Per-thread span stack and adopted ambient parent context.

    The stack must be thread-local: the prediction service opens request
    spans on its event-loop thread while campaign worker threads open
    shard spans concurrently, and a shared stack would interleave their
    parenting (and pop each other's handles).  Single-threaded processes —
    every pre-service consumer — see identical behaviour, and forked /
    spawned pool workers adopt their remote context on their own main
    thread as before.
    """

    def __init__(self) -> None:
        self.stack: list["ActiveSpan"] = []
        #: Remote parent context adopted from another process or thread.
        self.ambient: dict | None = None


_state = _ThreadState()
#: trace_id of the most recently opened span (run manifests record it).
_last_trace_id: str | None = None


def default_registry() -> MetricsRegistry:
    """The process-global registry instance."""
    return DEFAULT_REGISTRY


def verbose() -> bool:
    """True when spans mirror a human-readable line to stderr."""
    if _verbose is None:
        return settings.get("REPRO_VERBOSE")
    return _verbose


def set_verbose(value: bool | None) -> None:
    """Pin the stderr mirror on/off, or ``None`` to defer to REPRO_VERBOSE."""
    global _verbose
    _verbose = value


def tracing_active() -> bool:
    """True when spans have any live sink (registry, JSONL file, stderr)."""
    return enabled() or verbose() or settings.get("REPRO_LOG") is not None


# -- span context --------------------------------------------------------------


def _new_id() -> str:
    return secrets.token_hex(8)


def current_context() -> dict | None:
    """The active span context as a JSON-able dict, or None.

    The innermost open span wins; a worker with no open span reports the
    context it adopted from its parent.  This is exactly the payload to
    ship across a process boundary and hand to :func:`adopt_context`.
    """
    if _state.stack:
        top = _state.stack[-1]
        return {"trace_id": top.trace_id, "span_id": top.span_id}
    if _state.ambient is not None:
        return dict(_state.ambient)
    return None


def adopt_context(context: dict | None) -> None:
    """Adopt a remote parent span context (worker side).

    Until cleared (``adopt_context(None)``), spans opened in this *thread*
    with no local parent attach to the adopted ``span_id`` and share its
    ``trace_id`` — the mechanism that parents worker shard spans to the
    run span living in another process (or, for the prediction service's
    in-process worker threads, to the submitting request's span in the
    event-loop thread).
    """
    if context is None:
        _state.ambient = None
    else:
        _state.ambient = {
            "trace_id": str(context.get("trace_id", "")),
            "span_id": context.get("span_id"),
        }


def last_trace_id() -> str | None:
    """trace_id of the most recently opened span in this process."""
    return _last_trace_id


@contextmanager
def claim_log_ownership() -> Iterator[None]:
    """Own the main ``REPRO_LOG`` file for the block, then restore the
    previous ``REPRO_LOG_OWNER_PID``.

    Enter before spawning worker processes: workers inherit the
    ``REPRO_LOG_OWNER_PID`` variable, see a foreign PID, and route their
    events to per-PID sidecar files instead of interleaving appends into
    the parent's file.  A no-op when no log is configured or another
    process (or an enclosing block) already owns it, so only the
    outermost block restores.
    """
    if settings.get("REPRO_LOG") is None or settings.get("REPRO_LOG_OWNER_PID") is not None:
        yield
        return
    with settings.applied({"REPRO_LOG_OWNER_PID": os.getpid()}):
        yield


def event_sink() -> str | None:
    """The JSONL file *this process* appends events to (None when no log).

    The owning process (per ``REPRO_LOG_OWNER_PID``) writes to the
    ``REPRO_LOG`` path itself; every other process writes to its own
    ``<path>.<pid>`` sidecar, merged back by the sweep executor via
    :func:`repro.obs.events.collect_worker_events`.
    """
    path = settings.get("REPRO_LOG")
    if path is None:
        return None
    owner = settings.get("REPRO_LOG_OWNER_PID")
    if owner is not None and owner != os.getpid():
        return f"{path}.{os.getpid()}"
    return path


def log_event(event: str, **fields: object) -> None:
    """Append one structured event line to the event sink (no-op when
    ``REPRO_LOG`` is unset).  Every record carries the schema version,
    a timestamp and the emitting PID."""
    path = event_sink()
    if path is None:
        return
    record = {
        "event": event,
        "v": EVENT_SCHEMA,
        "ts": time.time(),
        "pid": os.getpid(),
        **fields,
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")


# -- spans ---------------------------------------------------------------------


@dataclass
class ActiveSpan:
    """Mutable handle for an open span; ``annotate`` adds event fields."""

    name: str
    depth: int
    attrs: dict[str, object] = field(default_factory=dict)
    trace_id: str = ""
    span_id: str = ""
    parent_id: str | None = None
    start_unix: float = 0.0

    def annotate(self, **attrs: object) -> None:
        """Attach extra key/value fields to the span's closing event."""
        self.attrs.update(attrs)


_NOOP_SPAN = ActiveSpan(name="", depth=0)


@contextmanager
def span(name: str, **attrs: object):
    """Trace one named phase: ``with obs.span("figure1.sweep", engine=...):``.

    Yields an :class:`ActiveSpan` whose ``annotate`` method adds fields to
    the emitted close event.  The span inherits its ``trace_id`` from the
    enclosing span (local, or adopted from a remote parent); a span with
    no parent starts a fresh trace.
    """
    if not tracing_active():
        yield _NOOP_SPAN
        return
    global _last_trace_id
    parent = current_context()
    handle = ActiveSpan(
        name=name,
        depth=len(_state.stack),
        attrs=dict(attrs),
        trace_id=parent["trace_id"] if parent else _new_id(),
        span_id=_new_id(),
        parent_id=parent["span_id"] if parent else None,
        start_unix=time.time(),
    )
    _last_trace_id = handle.trace_id
    _state.stack.append(handle)
    if verbose():
        print(f"[obs] {'  ' * handle.depth}> {name}", file=sys.stderr)
    log_event(
        "span_open",
        name=name,
        depth=handle.depth,
        trace_id=handle.trace_id,
        span_id=handle.span_id,
        parent_id=handle.parent_id,
    )
    start = time.perf_counter()
    try:
        yield handle
    finally:
        duration = time.perf_counter() - start
        _state.stack.pop()
        if enabled():
            DEFAULT_REGISTRY.timer(f"span.{name}").observe(duration)
        log_event(
            "span",
            name=name,
            depth=handle.depth,
            duration_seconds=duration,
            start_unix=handle.start_unix,
            trace_id=handle.trace_id,
            span_id=handle.span_id,
            parent_id=handle.parent_id,
            attrs=handle.attrs,
        )
        if verbose():
            extras = " ".join(f"{k}={v}" for k, v in handle.attrs.items())
            line = f"[obs] {'  ' * handle.depth}< {name} {duration:.3f}s"
            print(f"{line} {extras}".rstrip(), file=sys.stderr)
