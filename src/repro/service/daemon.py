"""The asyncio daemon: transport, long-polls, workers, graceful drain.

One process, one event loop, stdlib only.  The loop thread owns every
socket and never computes.  Only one kind of request answers inline on
the loop thread: a ``GET /v1/results/<digest>`` that hits the small LRU
of prebuilt response *bytes* (content addressing makes those responses
immutable, so the cache can never serve stale data).  Every other
request, store lookups included, runs :meth:`ServiceApp.handle` on an
executor thread (``_dispatch`` → ``run_in_executor``); a submission that
needs predictor work then enqueues its job onto the :class:`JobExecutor`.

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
import os
import signal
import subprocess
import sys
import threading

from repro import obs
from repro.service.app import ServiceApp
from repro.service.config import ServiceConfig
from repro.service.protocol import (
    HEAD_END,
    MAX_HEAD_BYTES,
    ProtocolError,
    build_response,
    parse_head,
)

#: Prebuilt ``GET /v1/results/<digest>`` responses kept hot (bytes each).
RESPONSE_CACHE_SIZE = 256


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
        obs.claim_log_ownership()
        cmd = [sys.executable, "-m", "repro.service.worker", run_dir]
        if trace_ctx:
            cmd += ["--trace-context", json.dumps(trace_ctx)]
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
        self._response_cache: collections.OrderedDict[str, bytes] = (
            collections.OrderedDict()
        )
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
                response = await self._serve_request(reader, head)
                if response is None:
                    return
                writer.write(response)
                await writer.drain()
                if b"Connection: close" in response[:256]:
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_request(
        self, reader: asyncio.StreamReader, head: bytes
    ) -> bytes | None:
        try:
            request = parse_head(head)
            length = request.content_length
        except ProtocolError as exc:
            return build_response(
                exc.status,
                (json.dumps({"error": exc.message}) + "\n").encode(),
                keep_alive=False,
            )
        if length > self.config.body_limit:
            return build_response(
                413,
                (
                    json.dumps(
                        {"error": f"body of {length} bytes exceeds limit "
                                  f"{self.config.body_limit}"}
                    )
                    + "\n"
                ).encode(),
                keep_alive=False,
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
                return build_response(408, keep_alive=False)

        # Hot path: immutable content-addressed fetches served from the
        # prebuilt-response cache without touching the app.
        if request.method == "GET" and request.path.startswith("/v1/results/"):
            cached = self._response_cache.get(request.path)
            if cached is not None:
                self._response_cache.move_to_end(request.path)
                if obs.enabled():
                    obs.counter("service.response_cache_hits").inc()
                return cached

        status_code, payload, content_type = await self._dispatch(request, body)

        # Long-poll: an unsettled job status with ?wait= blocks until the
        # job changes state (or the wait cap), then re-reads.
        wait = self._wait_seconds(request)
        if (
            wait > 0
            and status_code == 200
            and request.method == "GET"
            and self._is_unsettled_status(request.path, payload)
        ):
            job_id = request.path.rsplit("/", 1)[-1]
            await self._wait_for_update(job_id, wait)
            status_code, payload, content_type = await self._dispatch(request, b"")

        response = build_response(
            status_code,
            b"" if request.method == "HEAD" else payload,
            content_type,
            keep_alive=request.keep_alive,
        )
        if (
            status_code == 200
            and request.method == "GET"
            and request.path.startswith("/v1/results/")
        ):
            self._response_cache[request.path] = response
            self._response_cache.move_to_end(request.path)
            while len(self._response_cache) > RESPONSE_CACHE_SIZE:
                self._response_cache.popitem(last=False)
        return response

    async def _dispatch(self, request, body: bytes) -> tuple[int, bytes, str]:
        """Run the app's synchronous handler off the loop thread."""
        loop = asyncio.get_running_loop()
        with obs.span("service.request", method=request.method, path=request.path):
            # The handler runs on a pool thread whose tracing stack is
            # empty; hand it the request span's context so submissions
            # record it as the campaign's trace parent.
            ctx = obs.current_context()

            def call() -> tuple[int, bytes, str]:
                obs.adopt_context(ctx)
                try:
                    return self.app.handle(
                        request.method, request.path, request.query, body
                    )
                finally:
                    obs.adopt_context(None)

            status_code, payload, content_type = await loop.run_in_executor(None, call)
        if request.method == "POST" and request.path == "/v1/jobs" and status_code == 202:
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

    @staticmethod
    def _is_unsettled_status(path: str, payload: bytes) -> bool:
        parts = [p for p in path.split("/") if p]
        if len(parts) != 3 or parts[:2] != ["v1", "jobs"]:
            return False
        try:
            state = json.loads(payload).get("state", "")
        except json.JSONDecodeError:
            return False
        return state in ("queued", "running")


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
        default=os.environ.get("REPRO_SERVICE_DIR", "").strip() or "service-data",
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
    obs.claim_log_ownership()

    def announce(daemon: ServiceDaemon) -> None:
        print(
            f"repro-serve: listening on http://{config.host}:{daemon.port} "
            f"(data {config.data_dir}, {config.workers} {config.worker_mode} workers)",
            flush=True,
        )

    try:
        asyncio.run(_amain(config, announce))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
