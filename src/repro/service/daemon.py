"""The asyncio daemon: transport, long-polls, workers, graceful drain.

One process, one event loop, stdlib only.  The loop thread owns every
socket; it neither computes nor reads the stores.  It answers one kind
of request inline: a repeat of a *settled* reply — one the app's
:meth:`ServiceApp.settled` says can never change for the life of the
process (content-addressed blobs, a completed job's status, figure and
manifest, memoized attribution, a resubmit of a completed spec).  Those
replies are kept as ``(status, body, content type)`` in a small LRU keyed
by ``(method, path, body)``, and each answer gets its own response head,
so a client's ``Connection`` header is never replayed to another.  Every
other request — first fetches, 202 submissions, unsettled status,
long-polls, ``/healthz``, ``/metrics``, errors — runs
:meth:`ServiceApp.handle` on an executor thread (``_dispatch`` →
``run_in_executor``) inside a ``service.request`` span; a submission that
needs predictor work then enqueues its job onto the :class:`JobExecutor`.
Answers from memory open no span; the daemon counts them and, when it
stops, logs the count as a ``counter`` event for ``repro-stats service``.

The executor drains jobs either on in-process worker threads (default;
obs tracing is thread-local so request spans and campaign spans coexist)
or by spawning ``python -m repro.service.worker`` per job
(``--worker-mode spawn``), which exercises the same cross-process trace
parenting and per-PID event sidecars the sweep executor uses.

Graceful shutdown (SIGTERM/SIGINT): stop accepting, wake long-polls,
signal workers via the campaign drain hook (finish the current cell, not
the queue), wait up to ``drain_timeout``, then exit.  Every store write
along the way is atomic, so a drained-or-killed daemon restarts by
re-scanning: :meth:`ServiceApp.recover` re-enqueues unfinished jobs.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import json
import signal
import subprocess
import sys
import threading

from repro import obs
from repro.common import settings
from repro.obs.events import emit_counter
from repro.service.app import ServiceApp
from repro.service.config import ServiceConfig
from repro.service.protocol import (
    HEAD_END,
    MAX_HEAD_BYTES,
    ProtocolError,
    build_response,
    parse_head,
)

#: Settled replies kept in memory, least recently used evicted first.  An
#: entry holds its request body (a resubmitted spec, at most ``body_limit``
#: bytes) and its reply.
RESPONSE_CACHE_SIZE = 256

#: ``(status, body, content type)``: one reply as the app produces it.
Reply = tuple[int, bytes, str]


class JobExecutor:
    """Drains queued jobs on worker threads (or spawned processes)."""

    def __init__(self, app: ServiceApp, config: ServiceConfig) -> None:
        self.app = app
        self.config = config
        self._queue: collections.deque[str] = collections.deque()
        self._queued: set[str] = set()
        self._cond = threading.Condition()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    def start(self) -> None:
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def enqueue(self, job_id: str) -> None:
        """Queue a job for draining (idempotent while it waits)."""
        with self._cond:
            if job_id in self._queued:
                return
            self._queued.add(job_id)
            self._queue.append(job_id)
            self._cond.notify()

    def run_pending(self) -> int:
        """Drain the queue synchronously on *this* thread (workers=0 mode).

        Deterministic single-threaded execution for tests and the property
        suite; returns the number of jobs run.
        """
        ran = 0
        while True:
            with self._cond:
                if not self._queue:
                    return ran
                job_id = self._queue.popleft()
                self._queued.discard(job_id)
            self._run_one(job_id)
            ran += 1

    def stop(self, wait_seconds: float) -> None:
        """Signal workers to finish their current cell and join them."""
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=wait_seconds)

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            with self._cond:
                while not self._queue and not self._stop.is_set():
                    self._cond.wait(timeout=0.5)
                if self._stop.is_set():
                    return
                job_id = self._queue.popleft()
                self._queued.discard(job_id)
            self._run_one(job_id)

    def _run_one(self, job_id: str) -> None:
        drain = self._spawn_drain if self.config.worker_mode == "spawn" else None
        try:
            self.app.execute_job(
                job_id, should_stop=self._stop.is_set, drain=drain
            )
        except Exception:
            # execute_job classifies failures into job state; anything
            # escaping is a harness bug — count it, keep the worker alive.
            if obs.enabled():
                obs.counter("service.executor_errors").inc()

    def _spawn_drain(self, run_dir: str, trace_ctx: dict | None) -> None:
        """Drain one campaign in a child process (spawn worker mode)."""
        cmd = [sys.executable, "-m", "repro.service.worker", run_dir]
        if trace_ctx:
            cmd += ["--trace-context", json.dumps(trace_ctx)]
        with obs.claim_log_ownership():
            proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"spawned worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
            )


class ServiceDaemon:
    """Binds the app to a listening socket and runs until shutdown."""

    def __init__(self, config: ServiceConfig, app: ServiceApp | None = None) -> None:
        self.config = config
        self.app = app or ServiceApp(config)
        self.executor = JobExecutor(self.app, config)
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown = asyncio.Event()
        self._job_events: dict[str, asyncio.Event] = {}
        #: Settled replies by ``(method, path, body)``; loop thread only.
        self._settled: collections.OrderedDict[tuple[str, str, bytes], Reply] = (
            collections.OrderedDict()
        )
        #: Requests answered from ``_settled`` since start.
        self.cache_hits = 0
        self.port: int | None = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.app.on_job_update = self._notify_job_update
        for job_id in self.app.recover():
            self.executor.enqueue(job_id)
        self.executor.start()
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        obs.log_event("service_start", host=self.config.host, port=self.port)

    async def run_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown`; then drain gracefully."""
        assert self._server is not None
        async with self._server:
            await self._shutdown.wait()
        # Sockets are closed; let workers finish their current cell.
        for event in self._job_events.values():
            event.set()
        await asyncio.get_running_loop().run_in_executor(
            None, self.executor.stop, self.config.drain_timeout
        )
        emit_counter({"service.response_cache_hits": self.cache_hits})
        obs.log_event("service_stop", port=self.port)

    def request_shutdown(self) -> None:
        """Threadsafe: begin the graceful drain."""
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(self._shutdown.set)

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self._shutdown.set)

    # -- long-poll plumbing -----------------------------------------------

    def _notify_job_update(self, job_id: str) -> None:
        """Called from worker threads whenever a job changes state."""
        loop = self._loop
        if loop is None:
            return

        def wake() -> None:
            event = self._job_events.pop(job_id, None)
            if event is not None:
                event.set()

        loop.call_soon_threadsafe(wake)

    async def _wait_for_update(self, job_id: str, timeout: float) -> None:
        event = self._job_events.setdefault(job_id, asyncio.Event())
        try:
            await asyncio.wait_for(event.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            pass

    # -- connection handling ----------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._shutdown.is_set():
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(HEAD_END),
                        timeout=self.config.request_timeout,
                    )
                except asyncio.CancelledError:
                    return  # loop teardown during shutdown: close quietly
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # client closed between requests: normal
                except asyncio.LimitOverrunError:
                    writer.write(build_response(431, keep_alive=False))
                    await writer.drain()
                    return
                except asyncio.TimeoutError:
                    writer.write(build_response(408, keep_alive=False))
                    await writer.drain()
                    return
                answer = await self._serve_request(reader, head)
                if answer is None:
                    return
                response, keep_alive = answer
                writer.write(response)
                await writer.drain()
                if not keep_alive:
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_request(
        self, reader: asyncio.StreamReader, head: bytes
    ) -> tuple[bytes, bool] | None:
        """One request's ``(response bytes, keep the connection open)``;
        ``None`` when the client hung up mid-body."""
        try:
            request = parse_head(head)
            length = request.content_length
        except ProtocolError as exc:
            return _closing(exc.status, exc.message)
        if length > self.config.body_limit:
            return _closing(
                413, f"body of {length} bytes exceeds limit {self.config.body_limit}"
            )
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=self.config.request_timeout
                )
            except (asyncio.IncompleteReadError, ConnectionError):
                return None
            except asyncio.TimeoutError:
                return build_response(408, keep_alive=False), False

        key = (request.method, request.path, body)
        reply = self._settled.get(key)
        if reply is not None:
            self._settled.move_to_end(key)
            self.cache_hits += 1
            if obs.enabled():
                obs.counter("service.response_cache_hits").inc()
        else:
            reply = await self._dispatch(request, body)
            # Long-poll: an unsettled job status with ?wait= blocks until
            # the job changes state (or the wait cap), then re-reads.
            wait = self._wait_seconds(request)
            if wait > 0:
                job_id = self.app.pending_job(request.method, request.path, *reply[:2])
                if job_id:
                    await self._wait_for_update(job_id, wait)
                    reply = await self._dispatch(request, b"")
            if self.app.settled(request.method, request.path, *reply[:2]):
                self._settled[key] = reply
                if len(self._settled) > RESPONSE_CACHE_SIZE:
                    self._settled.popitem(last=False)

        status_code, payload, content_type = reply
        response = build_response(
            status_code,
            b"" if request.method == "HEAD" else payload,
            content_type,
            keep_alive=request.keep_alive,
        )
        return response, request.keep_alive

    async def _dispatch(self, request, body: bytes) -> Reply:
        """Run the app's synchronous handler off the loop thread."""
        loop = asyncio.get_running_loop()
        with obs.span("service.request", method=request.method, path=request.path):
            # The handler runs on a pool thread whose tracing stack is
            # empty; hand it the request span's context so submissions
            # record it as the campaign's trace parent.
            ctx = obs.current_context()

            def call() -> Reply:
                obs.adopt_context(ctx)
                try:
                    return self.app.handle(
                        request.method, request.path, request.query, body
                    )
                finally:
                    obs.adopt_context(None)

            status_code, payload, content_type = await loop.run_in_executor(None, call)
        if status_code == 202:  # accepted: the reply names the job it queued
            try:
                job_id = json.loads(payload).get("job_id", "")
            except json.JSONDecodeError:
                job_id = ""
            if job_id:
                self.executor.enqueue(job_id)
        return status_code, payload, content_type

    def _wait_seconds(self, request) -> float:
        raw = request.query.get("wait", "")
        if not raw:
            return 0.0
        try:
            wait = float(raw)
        except ValueError:
            return 0.0
        return max(0.0, min(wait, self.config.max_wait))


def _closing(status: int, message: str) -> tuple[bytes, bool]:
    """A JSON error answer after which the connection closes."""
    body = (json.dumps({"error": message}) + "\n").encode()
    return build_response(status, body, keep_alive=False), False


async def _amain(config: ServiceConfig, announce) -> None:
    daemon = ServiceDaemon(config)
    await daemon.start()
    daemon.install_signal_handlers()
    announce(daemon)
    await daemon.run_until_shutdown()


def main(argv: list[str] | None = None) -> int:
    """``repro-serve``: run the prediction service daemon."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve figure configs, sweep results, and attribution "
        "over HTTP/JSON, backed by the content-addressed stores.",
    )
    parser.add_argument(
        "--data-dir",
        default=settings.get("REPRO_SERVICE_DIR") or "service-data",
        help="service state root (jobs, blobs, stores); default %(default)s",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument(
        "--workers", type=int, default=None, help="campaign worker threads"
    )
    parser.add_argument(
        "--worker-mode",
        choices=("thread", "spawn"),
        default="thread",
        help="drain campaigns on threads (default) or spawned processes",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    settings.check_at_start(parser.prog)

    kwargs = {}
    if args.workers is not None:
        kwargs["workers"] = args.workers
    config = ServiceConfig(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        worker_mode=args.worker_mode,
        **kwargs,
    )
    obs.set_enabled(True)
    if args.verbose:
        obs.set_verbose(True)

    def announce(daemon: ServiceDaemon) -> None:
        print(
            f"repro-serve: listening on http://{config.host}:{daemon.port} "
            f"(data {config.data_dir}, {config.workers} {config.worker_mode} workers)",
            flush=True,
        )

    # The daemon owns the REPRO_LOG file until shutdown.
    try:
        with obs.claim_log_ownership():
            asyncio.run(_amain(config, announce))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
