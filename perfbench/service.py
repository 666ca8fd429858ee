"""``service_warm``: one keep-alive client against a ``repro-serve``
subprocess (one worker thread) that has completed one small job.

The client cycles a seed-shuffled mix of six routes, each answered from
stores the first job filled: a cached digest fetch, job status, figure,
manifest, per-branch attribution, and a resubmit of the completed spec.
It is a closed loop — the next request goes out when the reply is in —
so latencies are reported as measured.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import layers
from common import ROOT, CpuSteering, host_probe, program_env
from stats import latency_summary, nearest_rank

SERVICE_ENV = {"REPRO_SCALE": "0.02", "REPRO_BENCHMARKS": "gcc"}
SPEC = {
    "schema": 1,
    "target": "perfbench_service",
    "mode": "sweep",
    "title": "Benchmark service job",
    "grids": [
        {
            "kind": "accuracy",
            "families": ["gshare", "bimodal"],
            "budgets": [2048, 4096],
            "benchmarks": ["gcc"],
        }
    ],
}
ATTRIBUTION_PATH = "/v1/attribution/gcc/gshare/2048"
#: Each run sends at least this many requests, so >= 10 lie beyond p99.
MIN_REQUESTS = 1000
#: Passes over the route mix per window.  Windows repeat identical work,
#: so the fastest one is the service's time without host interference
#: (the per-op minimum of the grid workloads); traced runs alternate
#: untraced and traced windows.
WINDOW_CYCLES = 25
#: Between windows, set-up (boot a daemon on a fresh data dir, run the
#: first job, stop it) is timed again once this long has passed since its
#: last sample, so that its samples spread over the run like the windows.
SETUP_SAMPLE_S = 7.0
#: In-process ``ServiceApp.handle`` calls per route in the traced run.
HANDLE_PROBES = 100
BOOT_TIMEOUT = 60.0


class Daemon:
    """A ``repro-serve`` subprocess on an ephemeral loopback port."""

    def __init__(self, data_dir, log_path) -> None:
        self.data_dir = str(data_dir)
        start = time.perf_counter()
        with open(log_path, "w", encoding="utf-8") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service.daemon", "--data-dir", self.data_dir,
                 "--port", "0", "--workers", "1"],
                cwd=ROOT, env=program_env(**SERVICE_ENV),
                stdout=subprocess.PIPE, stderr=stderr, text=True,
            )
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        self.boot_seconds = time.perf_counter() - start
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"repro-serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].split()[0])

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill only if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def request(conn, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, response.read()


def first_job(daemon: Daemon) -> tuple[str, float]:
    """Submit the small job and long-poll it to completion."""
    conn = daemon.connect()
    try:
        start = time.perf_counter()
        status, body = request(conn, "POST", "/v1/jobs", json.dumps(SPEC).encode())
        doc = json.loads(body)
        if status != 202:
            raise RuntimeError(f"first submit answered {status}: {doc}")
        deadline = start + 120
        while doc.get("state") in ("queued", "running") or status == 202:
            if time.perf_counter() > deadline:
                raise RuntimeError(f"first job never settled: {doc}")
            status, body = request(conn, "GET", f"/v1/jobs/{doc['job_id']}?wait=5")
            doc = json.loads(body)
        elapsed = time.perf_counter() - start
    finally:
        conn.close()
    if doc.get("state") != "completed":
        raise RuntimeError(f"first job settled as {doc.get('state')}: {doc}")
    return doc["job_id"], elapsed


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def job_reply_check(job_id: str, code: int):
    """A check that a reply is ``code`` with the completed job in its body.
    A body that is not a JSON object is a wrong result: a failed op, not
    a crash of the run."""

    def check(status, body):
        try:
            doc = json.loads(body)
        except ValueError:
            return f"{status}, body is not JSON: {body[:60]!r}"
        if not isinstance(doc, dict):
            return f"{status}, body is not a JSON object"
        if status == code and doc.get("job_id") == job_id and doc.get("state") == "completed":
            return None
        return f"{status} {doc.get('state')} job {str(doc.get('job_id'))[:12]}"

    return check


def routes(conn, job_id: str) -> dict:
    """route -> (method, path, body, check(status, body) -> problem)."""
    status, body = request(conn, "GET", f"/v1/jobs/{job_id}")
    doc = json.loads(body)
    figure, manifest = doc["figure_digest"], doc["manifest_digest"]
    _, attribution = request(conn, "GET", ATTRIBUTION_PATH)  # computed once, here
    submit = json.dumps(SPEC).encode()

    def digest_is(want):
        return lambda status, body: None if status == 200 and _sha(body) == want else (
            f"{status}, body sha256 {_sha(body)[:12]} != {want[:12]}"
        )

    return {
        "results": ("GET", f"/v1/results/{figure}", None, digest_is(figure)),
        "status": ("GET", f"/v1/jobs/{job_id}", None, job_reply_check(job_id, 200)),
        "figure": ("GET", f"/v1/jobs/{job_id}/figure", None, digest_is(figure)),
        "manifest": ("GET", f"/v1/jobs/{job_id}/manifest", None, digest_is(manifest)),
        "attribution": ("GET", ATTRIBUTION_PATH, None, lambda status, body: None
                        if status == 200 and body == attribution else f"{status}, body changed"),
        "resubmit": ("POST", "/v1/jobs", submit, job_reply_check(job_id, 200)),
    }


def metrics(conn) -> dict:
    status, body = request(conn, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(body)


@dataclass
class Window:
    """``WINDOW_CYCLES`` passes over the route mix: identical work each time."""

    seconds: float
    latencies: list[float]
    traced: bool

    @property
    def requests_per_s(self) -> float:
        return len(self.latencies) / self.seconds


class SetupClock:
    """The service's set-up: daemon boot and first job.  The session's
    daemon gives the first sample; later ones boot a throwaway daemon on
    a fresh data dir between windows, while the session's daemon sits
    idle.  Each step reports its fastest sample."""

    def __init__(self, run) -> None:
        self.run = run
        self.boots: list[float] = []
        self.jobs: list[float] = []
        self._last = 0.0

    def start(self) -> tuple[Daemon, str]:
        """Boot the session's daemon and run its first job."""
        daemon = Daemon(self.run.scratch("svc0"), self.run.workdir / "daemon0.log")
        try:
            job_id, seconds = first_job(daemon)
        except Exception:
            daemon.stop()
            raise
        self._record(daemon, seconds)
        return daemon, job_id

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last < SETUP_SAMPLE_S:
            return
        index = len(self.boots)
        spare = Daemon(self.run.scratch(f"svc{index}"), self.run.workdir / f"daemon{index}.log")
        try:
            _, seconds = first_job(spare)
        finally:
            spare.stop()
            shutil.rmtree(spare.data_dir, ignore_errors=True)
        self._record(spare, seconds)

    def _record(self, daemon: Daemon, job_seconds: float) -> None:
        self.boots.append(daemon.boot_seconds)
        self.jobs.append(job_seconds)
        self._last = time.perf_counter()

    def seconds(self) -> float:
        return min(self.boots) + min(self.jobs)


def session(
    run, daemon: Daemon, table: dict, order: list[str], tracer, steering, clock: SetupClock
) -> dict:
    """The closed loop: cycle ``order`` until the time is spent and at
    least ``MIN_REQUESTS`` requests went out, with set-up samples between
    windows.  With a tracer, windows alternate between untraced and
    traced."""
    conn = daemon.connect()
    latencies: list[float] = []
    by_route: dict[str, list[float]] = {name: [] for name in order}
    windows: list[Window] = []
    current: list[float] = []
    cycles = 0
    start = time.perf_counter()
    window_start, traced = start, False
    try:
        while time.perf_counter() - start < run.seconds or len(latencies) < MIN_REQUESTS:
            for name in order:
                method, path, body, check = table[name]
                sent = time.perf_counter()
                try:
                    if traced:
                        with tracer.span("service.request", route=name):
                            status, data = request(conn, method, path, body)
                    else:
                        status, data = request(conn, method, path, body)
                except (OSError, http.client.HTTPException) as exc:
                    run.tally.record(f"{name}: {type(exc).__name__}: {exc}")
                    conn.close()
                    conn = daemon.connect()
                    continue
                elapsed = time.perf_counter() - sent
                problem = check(status, data)
                if run.tally.record(None if problem is None else f"{name}: {problem}"):
                    latencies.append(elapsed)
                    by_route[name].append(elapsed)
                    current.append(elapsed)
            cycles += 1
            if cycles % WINDOW_CYCLES == 0:
                windows.append(Window(time.perf_counter() - window_start, current, traced))
                clock.maybe_sample()
                steering.maybe_steer()
                window_start, current = time.perf_counter(), []
                traced = tracer is not None and not traced
        wall = time.perf_counter() - start
    finally:
        conn.close()
    return {"latencies": latencies, "by_route": by_route, "wall": wall, "windows": windows}


def handle_probe(data_dir: str, table: dict) -> dict[str, float]:
    """Median in-process ``ServiceApp.handle`` time per route on the same
    data dir (the daemon is stopped by then)."""
    from repro.service.app import ServiceApp
    from repro.service.config import ServiceConfig

    os.environ.update(SERVICE_ENV)
    app = ServiceApp(ServiceConfig(data_dir=data_dir, workers=0))
    app.recover()
    out = {}
    for name, (method, path, body, check) in table.items():
        times = []
        for _ in range(HANDLE_PROBES):
            start = time.perf_counter()
            status, _, _ = app.handle(method, path, {}, body or b"")
            times.append(time.perf_counter() - start)
            if status != 200:
                raise RuntimeError(f"in-process {name} answered {status}")
        out[name] = 1000.0 * nearest_rank(sorted(times), 50.0)
    return out


def run_service(run) -> None:
    probe_start = host_probe()
    steering = CpuSteering()
    steering.maybe_steer()  # the daemon inherits the choice
    clock = SetupClock(run)
    daemon, job_id = clock.start()
    tracer = None
    if run.trace:
        from tracer import Tracer

        tracer = Tracer()
    try:
        conn = daemon.connect()
        try:
            table = routes(conn, job_id)
            for name, (method, path, body, check) in table.items():  # warm-up
                request(conn, method, path, body)
            before = metrics(conn)
        finally:
            conn.close()
        order = list(table)
        random.Random(f"{run.workload}:{run.seed}").shuffle(order)
        steering.pids.append(daemon.proc.pid)
        steering.maybe_steer()
        result = session(run, daemon, table, order, tracer, steering, clock)
        conn = daemon.connect()
        try:
            after = metrics(conn)
        finally:
            conn.close()
    finally:
        daemon.stop()
    builds = after["predictor_builds"] - before["predictor_builds"]
    run.tally.record(None if builds == 0 else f"{builds} predictor builds during the session")

    setup_s = clock.seconds()
    run.report.append(
        f"set-up {setup_s:.3f}s (daemon boot {min(clock.boots):.3f}s, first job "
        f"{min(clock.jobs):.3f}s; fastest of {len(clock.boots)} samples)"
    )
    latencies = result["latencies"]
    summary = latency_summary(latencies)
    plain = [w for w in result["windows"] if not w.traced]
    best = max(plain, key=lambda w: w.requests_per_s)
    best_p50 = min(nearest_rank(sorted(w.latencies), 50.0) for w in plain)
    run.report.append(
        f"route order {order}; as measured: {len(latencies)} requests in "
        f"{result['wall']:.2f}s -> {len(latencies) / result['wall']:.1f} req/s, "
        f"p50 {1000 * summary['p50']:.3f}ms, p99 {1000 * nearest_rank(sorted(latencies), 99.0):.3f}ms, "
        f"p{summary['tail_p']:g} {1000 * summary['tail']:.3f}ms (n={summary['n']})"
    )
    run.report.append(
        f"fastest of {len(plain)} windows ({WINDOW_CYCLES} route cycles each): "
        f"{best.requests_per_s:.1f} req/s; lowest window p50 {1000 * best_p50:.3f}ms"
    )
    if tracer is None:
        run.metric("setup_s", setup_s, "s")
        run.metric("work_per_s", best.requests_per_s, "1/s")
        run.metric("latency_ms", 1000.0 * best_p50, "ms")
        return

    traced = [w for w in result["windows"] if w.traced]
    traced_best = max((w.requests_per_s for w in traced), default=0.0)
    counters = after["metrics"]["counters"]
    values = {
        "predictors.builds": builds,
        "service.request_p99_ms": 1000.0 * nearest_rank(sorted(latencies), 99.0),
        "service.response_cache_hits": counters.get("service.response_cache_hits", 0)
        - before["metrics"]["counters"].get("service.response_cache_hits", 0),
        "obs.trace_overhead": traced_best / best.requests_per_s,
        "host.probe_ms": (probe_start + host_probe()) / 2,
    }
    for name, samples in result["by_route"].items():
        values[f"service.route_p50_ms.{name}"] = 1000.0 * nearest_rank(sorted(samples), 50.0)
    for name, ms in handle_probe(daemon.data_dir, table).items():
        values[f"service.handle_ms.{name}"] = ms
    layers.finish(run, values, tracer)
