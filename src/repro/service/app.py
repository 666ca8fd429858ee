"""The service's dispatch core: routes, handlers, and backpressure.

:class:`ServiceApp` is deliberately synchronous and socket-free — it maps
``(method, path, query, body)`` to ``(status, body bytes, content type)``.
The asyncio daemon wraps it with transport concerns (framing, timeouts,
long-poll waits, the response cache); tests and the Hypothesis suite drive
it directly, so every route's semantics are checkable without a port.
:meth:`ServiceApp.handle` itself caches no reply: every call reads the
stores, verifying blobs and re-rendering damaged ones.

The app also says which replies are *settled* (:meth:`ServiceApp.settled`):
a 200 that no later request can change for the life of the process —
content-addressed blobs, a completed job's status and artifacts, a
memoized attribution table.  The daemon answers repeats of those from
memory on its loop thread.  The test reads the reply itself, never the
pending ledger: a worker may complete the job between the handler's read
and a ledger check, and a ``running`` reply judged by the ledger would be
frozen for good.

Routes::

    POST /v1/jobs                      submit a figure-config spec
    GET  /v1/jobs                      list known job ids and states
    GET  /v1/jobs/<id>                 job status (five-class counts)
    GET  /v1/jobs/<id>/figure          rendered figure text
    GET  /v1/jobs/<id>/manifest        run manifest JSON
    GET  /v1/results/<digest>          any blob by content digest
    GET  /v1/attribution/<b>/<f>/<B>   per-branch attribution table
    GET  /healthz                      liveness + queue depth
    GET  /metrics                      obs counter/timer registry snapshot

Backpressure: submissions beyond ``max_pending`` unfinished jobs answer
429 rather than queueing unboundedly.  The pending ledger is in-memory
(rebuilt from ``status.json`` files by :meth:`recover` at startup) so the
hot admission check never walks the jobs directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading

from repro import obs
from repro.common import settings
from repro.common.errors import ConfigurationError, ReproError
from repro.service.config import ServiceConfig
from repro.service.jobs import (
    AttributionCache,
    BlobStore,
    JobError,
    JobStore,
    is_terminal,
)

JSON_TYPE = "application/json"
TEXT_TYPE = "text/plain; charset=utf-8"

#: States counted against the ``max_pending`` admission bound.
PENDING_STATES = ("queued", "running")


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, default=str) + "\n").encode("utf-8")


def _path_parts(path: str) -> list[str]:
    return [p for p in path.split("/") if p]


def _reply_state(payload: bytes) -> str:
    """The ``state`` a job-status reply reports (``""`` for any other body)."""
    try:
        doc = json.loads(payload)
    except ValueError:
        return ""
    return doc.get("state", "") if isinstance(doc, dict) else ""


class ServiceApp:
    """Route dispatch over the job, blob, and attribution stores."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        os.makedirs(config.data_dir, exist_ok=True)
        # The campaign workers and the render path resolve cells through
        # the *active* stores; default them into the service's data dir so
        # a bare daemon is self-contained (a set store still wins).
        #: The stores this app set, and to what, until :meth:`close`.
        self._defaulted: dict[str, str] = {}
        for name, path in (
            ("REPRO_RESULT_STORE", config.default_result_store),
            ("REPRO_TRACE_STORE", config.default_trace_store),
        ):
            if settings.get(name) is None:
                settings.set(name, path)
                self._defaulted[name] = settings.get(name)
        self.blobs = BlobStore(config.blobs_dir)
        self.jobs = JobStore(config.jobs_dir, self.blobs)
        self.attribution = AttributionCache(config.attribution_dir)
        #: job_id -> last known state; the admission ledger.
        self._states: dict[str, str] = {}
        self._lock = threading.Lock()
        #: Called (from any thread) with a job_id whose state changed;
        #: the daemon wires this to wake long-polls.
        self.on_job_update = None

    def close(self) -> None:
        """Unset each store the constructor defaulted into the environment
        and that still holds the value it set; a second call does nothing."""
        for name, value in self._defaulted.items():
            if settings.get(name) == value:
                settings.set(name, None)
        self._defaulted.clear()

    # -- pending ledger ---------------------------------------------------

    def recover(self) -> list[str]:
        """Rebuild the ledger from disk; returns job ids needing work.

        Jobs left ``running`` by a previous daemon (killed mid-drain) are
        indistinguishable from ``queued`` after recovery — their campaign
        queues still hold the unfinished cells — so both re-enqueue.
        """
        resumable = []
        with self._lock:
            for job_id in self.jobs.job_ids():
                try:
                    state = self.jobs.status(job_id)["state"]
                except ReproError:
                    continue
                self._states[job_id] = state
                if state in PENDING_STATES:
                    resumable.append(job_id)
        return resumable

    def note_state(self, job_id: str, state: str) -> None:
        with self._lock:
            self._states[job_id] = state
        callback = self.on_job_update
        if callback is not None:
            callback(job_id)

    def pending_count(self) -> int:
        with self._lock:
            return sum(1 for s in self._states.values() if s in PENDING_STATES)

    def job_states(self) -> dict[str, str]:
        with self._lock:
            return dict(self._states)

    # -- job execution (called by the executor) ---------------------------

    def execute_job(self, job_id: str, should_stop=None, drain=None) -> dict:
        """Run one job to a settled state, keeping the ledger current."""
        self.note_state(job_id, "running")
        status = self.jobs.execute(job_id, should_stop=should_stop, drain=drain)
        self.note_state(job_id, status["state"])
        return status

    # -- reply classification (for the transport) ------------------------

    @staticmethod
    def settled(method: str, path: str, status: int, payload: bytes) -> bool:
        """True when this reply can never change for the life of the process.

        Settled: a 200 to ``GET /v1/results/<digest>`` (content-addressed),
        ``GET /v1/jobs/<id>/figure`` or ``/manifest`` (served only for a
        completed job), ``GET /v1/attribution/...`` (memoized under a
        content key), ``POST /v1/jobs`` (a 200 there is a completed job's
        frozen status) and ``GET /v1/jobs/<id>`` when the reply itself says
        ``completed``.  Never settled: ``HEAD``, the job list, ``/healthz``,
        ``/metrics``, any non-200.
        """
        parts = _path_parts(path)
        if status != 200 or parts[:1] != ["v1"]:
            return False
        if method == "POST":
            return parts == ["v1", "jobs"]
        if method != "GET":
            return False
        if parts[1:2] == ["jobs"]:
            if len(parts) == 3:  # a status: settled once it says completed
                return is_terminal(_reply_state(payload))
            return len(parts) == 4  # a completed job's figure or manifest
        return parts[1:2] in (["results"], ["attribution"])

    @staticmethod
    def pending_job(method: str, path: str, status: int, payload: bytes) -> str:
        """The job id when this reply is a job status reading ``queued`` or
        ``running`` (a long-poll holds it until the job moves), else ``""``."""
        parts = _path_parts(path)
        if method != "GET" or status != 200 or len(parts) != 3 or parts[:2] != ["v1", "jobs"]:
            return ""
        return parts[2] if _reply_state(payload) in PENDING_STATES else ""

    # -- dispatch ---------------------------------------------------------

    def handle(
        self, method: str, path: str, query: dict | None = None, body: bytes = b""
    ) -> tuple[int, bytes, str]:
        """Serve one request; returns ``(status, body, content_type)``.

        Never raises for client-visible conditions — every error becomes a
        JSON ``{"error": ...}`` body with the right status code.
        """
        query = query or {}
        try:
            return self._route(method, path, query, body)
        except ProtocolHalt as halt:
            return halt.status, _json_bytes({"error": halt.message}), JSON_TYPE
        except (ConfigurationError, JobError, ReproError) as exc:
            return 400, _json_bytes({"error": str(exc)}), JSON_TYPE
        except Exception as exc:  # route bugs must not kill the daemon
            if obs.enabled():
                obs.counter("service.internal_errors").inc()
            return (
                500,
                _json_bytes({"error": f"{type(exc).__name__}: {exc}"}),
                JSON_TYPE,
            )

    def _route(
        self, method: str, path: str, query: dict, body: bytes
    ) -> tuple[int, bytes, str]:
        parts = _path_parts(path)
        if path == "/healthz":
            return self._healthz(method)
        if path == "/metrics":
            return self._metrics(method)
        if parts[:1] == ["v1"] and len(parts) >= 2:
            if parts[1] == "jobs":
                return self._jobs_route(method, parts[2:], body)
            if parts[1] == "results" and len(parts) == 3:
                return self._results(method, parts[2])
            if parts[1] == "attribution" and len(parts) == 5:
                return self._attribution(method, parts[2], parts[3], parts[4])
        raise ProtocolHalt(404, f"no route for {path!r}")

    # -- handlers ---------------------------------------------------------

    def _healthz(self, method: str) -> tuple[int, bytes, str]:
        _require(method, ("GET", "HEAD"))
        payload = {
            "ok": True,
            "pending": self.pending_count(),
            "max_pending": self.config.max_pending,
            "jobs": len(self.job_states()),
        }
        return 200, _json_bytes(payload), JSON_TYPE

    def _metrics(self, method: str) -> tuple[int, bytes, str]:
        _require(method, ("GET", "HEAD"))
        from repro.predictors import registry as predictors

        payload = {
            "metrics": obs.registry().snapshot(),
            "predictor_builds": predictors.build_count(),
            "pending": self.pending_count(),
            "job_states": self.job_states(),
        }
        return 200, _json_bytes(payload), JSON_TYPE

    def _jobs_route(
        self, method: str, rest: list[str], body: bytes
    ) -> tuple[int, bytes, str]:
        if not rest:
            if method == "POST":
                return self._submit(body)
            _require(method, ("GET", "HEAD"))
            return 200, _json_bytes({"jobs": self.job_states()}), JSON_TYPE
        job_id = rest[0]
        if len(rest) == 1:
            _require(method, ("GET", "HEAD"))
            return self._job_status(job_id)
        if len(rest) == 2 and rest[1] in ("figure", "manifest"):
            _require(method, ("GET", "HEAD"))
            return self._job_artifact(job_id, rest[1])
        raise ProtocolHalt(404, f"no such job resource {'/'.join(rest[1:])!r}")

    def _submit(self, body: bytes) -> tuple[int, bytes, str]:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolHalt(400, f"body is not valid JSON: {exc}") from None
        with obs.span("service.submit"):
            trace_ctx = obs.current_context()
            try:
                config = self.jobs.parse_submission(doc)
            except ConfigurationError as exc:
                raise ProtocolHalt(400, str(exc)) from None
            # Admission control before any disk work: a full queue answers
            # 429 unless the spec is already a completed job (pure cache
            # hit — always admissible).
            from repro.harness.scale import benchmark_names
            from repro.harness.sweep import grid_cfg
            from repro.service.jobs import job_id_for

            cfg_by_kind = {g.kind: grid_cfg(g.kind) for g in config.grids}
            job_id = job_id_for(doc, cfg_by_kind, benchmark_names())
            known = self.job_states().get(job_id)
            if (
                known not in ("completed",)
                and not known
                and self.pending_count() >= self.config.max_pending
            ):
                if obs.enabled():
                    obs.counter("service.backpressure_429").inc()
                raise ProtocolHalt(
                    429,
                    f"{self.pending_count()} jobs pending "
                    f"(max {self.config.max_pending}); retry later",
                )
            status = self.jobs.submit(doc, trace_ctx=trace_ctx)
            self.note_state(job_id, status["state"])
        code = 200 if status["state"] == "completed" else 202
        return code, _json_bytes(status), JSON_TYPE

    def _job_status(self, job_id: str) -> tuple[int, bytes, str]:
        try:
            status = self.jobs.status(job_id)
        except JobError:
            raise ProtocolHalt(404, f"unknown job {job_id!r}") from None
        with self._lock:
            self._states[job_id] = status["state"]
        return 200, _json_bytes(status), JSON_TYPE

    def _job_artifact(self, job_id: str, kind: str) -> tuple[int, bytes, str]:
        try:
            status = self.jobs.status(job_id)
        except JobError:
            raise ProtocolHalt(404, f"unknown job {job_id!r}") from None
        if status["state"] != "completed":
            raise ProtocolHalt(
                409,
                f"job {job_id} is {status['state']!r}; "
                f"the {kind} exists only once it completes",
            )
        if kind == "figure":
            data, digest = self.jobs.figure_bytes(job_id)
            content_type = TEXT_TYPE
        else:
            data, digest = self.jobs.manifest_bytes(job_id)
            content_type = JSON_TYPE
        if obs.enabled():
            obs.counter(f"service.{kind}_fetches").inc()
        return 200, data, content_type

    def _results(self, method: str, digest: str) -> tuple[int, bytes, str]:
        _require(method, ("GET", "HEAD"))
        data = self.blobs.load(digest)
        if data is None:
            data = self._reheal_blob(digest)
        if data is None:
            raise ProtocolHalt(404, f"no blob with digest {digest!r}")
        if obs.enabled():
            obs.counter("service.result_fetches").inc()
        return 200, data, "application/octet-stream"

    def _reheal_blob(self, digest: str) -> bytes | None:
        """Re-render a figure/manifest blob a completed job once produced,
        when the re-render reproduces ``digest``.

        A figure re-renders to the same bytes, hence the same digest, so a
        corrupt figure blob is recomputed.  A manifest records its creation
        time and render duration, so a re-rendered one has other bytes:
        ``/v1/jobs/<id>/manifest`` serves it, but a fetch of the lost
        digest answers 404 rather than bytes that are not that digest.
        """
        for job_id, state in self.job_states().items():
            if state != "completed":
                continue
            status = self.jobs.status(job_id)
            if status.get("figure_digest") == digest:
                data = self.jobs.figure_bytes(job_id)[0]
            elif status.get("manifest_digest") == digest:
                data = self.jobs.manifest_bytes(job_id)[0]
            else:
                continue
            if hashlib.sha256(data).hexdigest() != digest:
                raise ProtocolHalt(
                    404, f"blob {digest!r} was lost and its re-render has other bytes"
                )
            return data
        return None

    def _attribution(
        self, method: str, benchmark: str, family: str, budget: str
    ) -> tuple[int, bytes, str]:
        _require(method, ("GET", "HEAD"))
        from repro.harness.scale import benchmark_names
        from repro.predictors.registry import family_names

        try:
            budget_bytes = int(budget)
        except ValueError:
            raise ProtocolHalt(400, f"budget must be an integer, got {budget!r}") from None
        if benchmark not in benchmark_names():
            raise ProtocolHalt(404, f"unknown benchmark {benchmark!r}")
        if family not in family_names():
            raise ProtocolHalt(404, f"unknown predictor family {family!r}")
        with obs.span(
            "service.attribution", benchmark=benchmark, family=family, budget=budget_bytes
        ):
            payload = self.attribution.fetch(benchmark, family, budget_bytes)
        return 200, _json_bytes(payload), JSON_TYPE


class ProtocolHalt(Exception):
    """Stop routing and answer ``status`` with a JSON error body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _require(method: str, allowed: tuple[str, ...]) -> None:
    if method not in allowed:
        raise ProtocolHalt(405, f"method {method} not allowed here")
