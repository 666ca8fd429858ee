"""Shared plumbing for the prediction-service test suites.

Builds tiny sweep specs, in-process apps/executors, and socket-backed
daemons (the real asyncio server on an ephemeral loopback port, driven
from a background thread) so the protocol, fault, and property suites
share one vocabulary.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import pytest

from repro.service.app import ServiceApp
from repro.service.config import ServiceConfig
from repro.service.daemon import JobExecutor, ServiceDaemon

#: Environment the service suites pin: tiny traces, one benchmark by
#: default (specs pin their own benchmark lists), stores under tmp dirs.
SCALE = "0.02"


def mini_spec(
    name: str = "mini",
    families: tuple[str, ...] = ("gshare",),
    budgets: tuple[int, ...] = (1024,),
    benchmarks: tuple[str, ...] = ("gcc",),
    title: str = "Mini sweep",
) -> dict:
    """A small sweep-mode config document (the service's submission unit)."""
    return {
        "schema": 1,
        "target": name,
        "mode": "sweep",
        "title": title,
        "grids": [
            {
                "kind": "accuracy",
                "families": list(families),
                "budgets": list(budgets),
                "benchmarks": list(benchmarks),
            }
        ],
    }


def set_service_env(monkeypatch, tmp_path, trace_store) -> None:
    """Pin scale, benchmarks, and both stores for one test."""
    monkeypatch.setenv("REPRO_SCALE", SCALE)
    monkeypatch.setenv("REPRO_BENCHMARKS", "gcc,eon")
    monkeypatch.setenv("REPRO_TRACE_STORE", str(trace_store))
    monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "results"))
    for var in (
        "REPRO_LOG",
        "REPRO_RUN_DIR",
        "REPRO_CAMPAIGN_ABORT_AFTER",
        "REPRO_SERVICE_MAX_PENDING",
        "REPRO_SERVICE_WORKERS",
    ):
        monkeypatch.delenv(var, raising=False)


#: Apps :func:`make_app` opened, closed when their test ends.
_OPEN_APPS: list[ServiceApp] = []


@pytest.fixture(autouse=True)
def close_apps():
    """Close every app :func:`make_app` opened in the test (a module that
    imports this fixture uses it for each of its tests)."""
    yield
    while _OPEN_APPS:
        _OPEN_APPS.pop().close()


def make_app(tmp_path, workers: int = 0, **config_kwargs):
    """An app + executor over ``tmp_path/svc`` (workers=0: run_pending),
    closed when the test ends."""
    config = ServiceConfig(
        data_dir=str(tmp_path / "svc"), workers=workers, **config_kwargs
    )
    app = ServiceApp(config)
    _OPEN_APPS.append(app)
    executor = JobExecutor(app, config)
    return app, executor


def submit(app: ServiceApp, spec: dict) -> tuple[int, dict]:
    code, payload, _ = app.handle("POST", "/v1/jobs", {}, json.dumps(spec).encode())
    return code, json.loads(payload)


def get_json(app: ServiceApp, path: str) -> tuple[int, dict]:
    code, payload, _ = app.handle("GET", path)
    return code, json.loads(payload)


def run_job(app: ServiceApp, executor: JobExecutor, spec: dict) -> dict:
    """Submit + drain synchronously; returns the settled status."""
    code, doc = submit(app, spec)
    assert code in (200, 202), doc
    if code == 202:
        executor.enqueue(doc["job_id"])
        executor.run_pending()
    code, status = get_json(app, f"/v1/jobs/{doc['job_id']}")
    assert code == 200
    return status


class DaemonHarness:
    """The real asyncio daemon on an ephemeral port, in a thread."""

    def __init__(self, config: ServiceConfig) -> None:
        self.daemon = ServiceDaemon(config)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._ready = threading.Event()

    def _run(self) -> None:
        async def amain() -> None:
            await self.daemon.start()
            self._ready.set()
            await self.daemon.run_until_shutdown()

        asyncio.run(amain())

    def __enter__(self) -> "DaemonHarness":
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("daemon failed to start")
        return self

    def __exit__(self, *exc) -> None:
        self.daemon.request_shutdown()
        self._thread.join(timeout=self.daemon.config.drain_timeout + 10)
        self.daemon.app.close()

    @property
    def port(self) -> int:
        return self.daemon.port

    def connect(self, timeout: float = 30.0) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)

    def request_json(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict]:
        conn = self.connect()
        try:
            conn.request(method, path, None if body is None else json.dumps(body))
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def wait_settled(self, job_id: str, tries: int = 60) -> dict:
        """Long-poll until the job leaves queued/running."""
        for _ in range(tries):
            status, doc = self.request_json("GET", f"/v1/jobs/{job_id}?wait=5")
            assert status == 200, doc
            if doc["state"] not in ("queued", "running"):
                return doc
        raise AssertionError(f"job {job_id} never settled: {doc}")
