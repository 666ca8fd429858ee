"""The prediction service: protocol, round-trips, concurrency, drain.

Socket-level tests run the real asyncio daemon on an ephemeral loopback
port (via :class:`tests.service_helpers.DaemonHarness`); dispatch-level
tests drive :class:`ServiceApp` directly.  The graceful-drain drill runs
``repro-serve`` as a genuine subprocess and SIGTERMs it mid-campaign.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.obs.aggregate import service_rollup
from repro.obs.cli import render_service
from repro.obs.events import read_run_events
from repro.predictors.registry import build_count
from repro.service.app import ServiceApp
from repro.service.config import ServiceConfig
from repro.service.jobs import JOB_STATES
from repro.service.protocol import (
    HttpRequest,
    ProtocolError,
    build_response,
    parse_head,
)
from tests.service_helpers import (
    DaemonHarness,
    close_apps,  # noqa: F401 - an autouse fixture
    get_json,
    make_app,
    mini_spec,
    run_job,
    set_service_env,
    submit,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def trace_store(tmp_path_factory):
    """One warm trace store shared by every test in this module."""
    return tmp_path_factory.mktemp("traces")


@pytest.fixture
def env(monkeypatch, tmp_path, trace_store):
    set_service_env(monkeypatch, tmp_path, trace_store)
    return tmp_path


# -- protocol units (no sockets) -----------------------------------------------


class TestProtocol:
    def test_parse_head_roundtrip(self):
        head = (
            b"GET /v1/jobs/abc?wait=2.5 HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: 7\r\nConnection: close\r\n\r\n"
        )
        request = parse_head(head)
        assert request.method == "GET"
        assert request.path == "/v1/jobs/abc"
        assert request.query == {"wait": "2.5"}
        assert request.content_length == 7
        assert not request.keep_alive

    def test_malformed_request_line(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_head(b"BOGUS\r\n\r\n")
        assert excinfo.value.status == 400

    def test_unsupported_method(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_head(b"PATCH /x HTTP/1.1\r\n\r\n")
        assert excinfo.value.status == 405

    def test_unsupported_version(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_head(b"GET /x HTTP/2\r\n\r\n")
        assert excinfo.value.status == 400

    def test_bad_header_line(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_head(b"GET /x HTTP/1.1\r\nnocolonhere\r\n\r\n")
        assert excinfo.value.status == 400

    def test_bad_content_length(self):
        request = HttpRequest(
            "POST", "/v1/jobs", headers={"content-length": "banana"}
        )
        with pytest.raises(ProtocolError) as excinfo:
            request.content_length
        assert excinfo.value.status == 400

    def test_oversize_head_refused(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_head(b"GET /" + b"x" * 20000 + b" HTTP/1.1\r\n\r\n")
        assert excinfo.value.status == 431

    def test_build_response_framing(self):
        response = build_response(200, b'{"ok": true}')
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 12" in head
        assert body == b'{"ok": true}'


# -- submit -> poll -> fetch over a real socket --------------------------------


class TestRoundTrip:
    def test_submit_poll_fetch_byte_identical(self, env, tmp_path, capsys):
        """The served figure matches ``repro-figures --config`` exactly."""
        spec = mini_spec()
        config = ServiceConfig(data_dir=str(tmp_path / "svc"), workers=1)
        with DaemonHarness(config) as harness:
            code, doc = harness.request_json("POST", "/v1/jobs", spec)
            assert code == 202
            assert doc["state"] == "queued"
            status = harness.wait_settled(doc["job_id"])
            assert status["state"] == "completed"
            assert status["counts"]["completed"] == 1

            conn = harness.connect()
            conn.request("GET", f"/v1/jobs/{doc['job_id']}/figure")
            response = conn.getresponse()
            assert response.status == 200
            served = response.read()
            # Same bytes again via the content-addressed results endpoint.
            conn.request("GET", f"/v1/results/{status['figure_digest']}")
            assert conn.getresponse().read() == served
            # And again: the daemon's response cache must be transparent.
            conn.request("GET", f"/v1/results/{status['figure_digest']}")
            assert conn.getresponse().read() == served
            conn.close()

        # The CLI, pointed at the same stores, renders the same bytes.
        from repro.harness.cli import main as figures_main

        config_path = tmp_path / "mini.json"
        config_path.write_text(json.dumps(spec))
        out_dir = tmp_path / "out"
        assert figures_main(["--config", str(config_path), "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert (out_dir / "mini.txt").read_bytes() == served + b"\n"

    def run_runner_job(self, tmp_path, monkeypatch, runner: str) -> dict:
        """Submit and drain a runner config; the render must read every cell
        from the result store (no miss, no build), and the served bytes must
        be what the runner prints."""
        from repro.harness.cli import RUNNERS
        from repro.harness.figconfig import parse_config, run_target
        from repro.harness.resultstore import reset_result_store_stats, result_store_stats

        app, executor = make_app(tmp_path)
        renders = []
        render = app.jobs.render

        def counted(job_id):
            reset_result_store_stats()
            before = build_count()
            rendered = render(job_id)
            renders.append((result_store_stats()["misses"], build_count() - before))
            return rendered

        monkeypatch.setattr(app.jobs, "render", counted)
        spec = {"schema": 1, "target": runner, "mode": "runner", "runner": runner}
        status = run_job(app, executor, spec)
        assert status["state"] == "completed"
        assert renders == [(0, 0)]
        code, served, _ = app.handle("GET", f"/v1/jobs/{status['job_id']}/figure")
        assert code == 200
        assert served == run_target(parse_config(spec), RUNNERS).encode("utf-8")
        return status

    def test_runner_job_renders_the_grid_it_planned(self, env, tmp_path, monkeypatch):
        """A runner submission declares no grid; the service plans the
        built-in figure's grid, so once the campaign drains the render
        reads every cell from the result store: no miss, no build."""
        status = self.run_runner_job(tmp_path, monkeypatch, "figure6")
        assert status["cells"] == 3 * 2  # Figure 6's families x gcc,eon

    def test_runner_job_of_a_study(self, env, tmp_path, monkeypatch):
        """A study is a runner target like any figure: the service plans the
        §4.5 study's override cells and serves the bytes it prints."""
        status = self.run_runner_job(tmp_path, monkeypatch, "override")
        assert status["cells"] == 2 * 2  # the two slow families x gcc,eon

    def test_resubmit_completed_is_pure_cache_hit(self, env, tmp_path):
        app, executor = make_app(tmp_path)
        spec = mini_spec()
        status = run_job(app, executor, spec)
        assert status["state"] == "completed"
        before = build_count()
        code, doc = submit(app, spec)
        assert code == 200  # not 202: nothing to do
        assert doc["state"] == "completed"
        assert doc["figure_digest"] == status["figure_digest"]
        assert executor.run_pending() == 0
        assert build_count() == before

    def test_manifest_endpoint(self, env, tmp_path):
        app, executor = make_app(tmp_path)
        status = run_job(app, executor, mini_spec())
        code, payload, ctype = app.handle(
            "GET", f"/v1/jobs/{status['job_id']}/manifest"
        )
        assert code == 200 and ctype == "application/json"
        manifest = json.loads(payload)
        assert manifest["target"] == "mini"
        assert manifest["output"]["bytes"] > 0

    def test_long_poll_blocks_until_wait(self, env, tmp_path):
        """With no workers the job stays queued; ?wait= holds the reply."""
        config = ServiceConfig(data_dir=str(tmp_path / "svc"), workers=0)
        with DaemonHarness(config) as harness:
            code, doc = harness.request_json("POST", "/v1/jobs", mini_spec())
            assert code == 202
            started = time.perf_counter()
            code, status = harness.request_json(
                "GET", f"/v1/jobs/{doc['job_id']}?wait=1"
            )
            elapsed = time.perf_counter() - started
            assert code == 200 and status["state"] == "queued"
            assert elapsed >= 0.9

    def test_attribution_endpoint_memoizes(self, env, tmp_path):
        app, _ = make_app(tmp_path)
        code, first = get_json(app, "/v1/attribution/gcc/gshare/1024")
        assert code == 200
        assert first["sites"] and first["benchmark"] == "gcc"
        before = build_count()
        code, second = get_json(app, "/v1/attribution/gcc/gshare/1024")
        assert code == 200
        assert second == first  # idempotent payload
        assert build_count() == before  # zero predictor work on the hit


# -- concurrent clients --------------------------------------------------------


class TestConcurrency:
    def test_concurrent_submissions_share_work(self, env, tmp_path, obs_enabled):
        """N clients, same spec: the grid executes exactly once."""
        spec = mini_spec(families=("gshare", "bimodal"), budgets=(1024, 2048))
        cells = 2 * 2  # families x budgets, one benchmark
        config = ServiceConfig(data_dir=str(tmp_path / "svc"), workers=2)
        before = build_count()
        with DaemonHarness(config) as harness:
            results: list[dict] = []
            errors: list[Exception] = []

            def client() -> None:
                try:
                    code, doc = harness.request_json("POST", "/v1/jobs", spec)
                    assert code in (200, 202), doc
                    results.append(harness.wait_settled(doc["job_id"]))
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors
            assert len(results) == 6
            assert {doc["state"] for doc in results} == {"completed"}
            assert len({doc["job_id"] for doc in results}) == 1
            assert len({doc["figure_digest"] for doc in results}) == 1
        # Zero duplicated cell executions: one build per distinct cell,
        # visible both in the global count and the obs counter.
        assert build_count() - before == cells
        assert obs_enabled.counter("predictors.builds").value == cells


# -- error paths ---------------------------------------------------------------


class TestErrorPaths:
    def test_malformed_json_body(self, env, tmp_path):
        app, _ = make_app(tmp_path)
        code, payload, _ = app.handle("POST", "/v1/jobs", {}, b"{nope")
        assert code == 400
        assert "JSON" in json.loads(payload)["error"]

    def test_invalid_spec_rejected(self, env, tmp_path):
        app, _ = make_app(tmp_path)
        bad = mini_spec()
        bad["mode"] = "inferred"
        code, payload, _ = app.handle("POST", "/v1/jobs", {}, json.dumps(bad).encode())
        assert code == 400
        code, _, _ = app.handle("POST", "/v1/jobs", {}, b'["not an object"]')
        assert code == 400

    def test_runner_config_declaring_grids_rejected(self, env, tmp_path):
        """The declared grid would be planned while the built-in figure is
        rendered, so the submission is refused."""
        app, _ = make_app(tmp_path)
        spec = {
            "schema": 1,
            "target": "figure6",
            "mode": "runner",
            "runner": "figure6",
            "grids": [{"kind": "accuracy", "families": ["gshare"], "budgets": [2048]}],
        }
        code, payload, _ = app.handle("POST", "/v1/jobs", {}, json.dumps(spec).encode())
        assert code == 400
        assert "grids" in json.loads(payload)["error"]

    def test_unknown_ipc_mode_rejected_without_a_job(self, env, tmp_path):
        """A misspelt IPC mode is refused at submission, not after the
        valid mode's cells ran."""
        app, _ = make_app(tmp_path)
        spec = mini_spec(name="typo")
        spec["grids"] = [
            {
                "kind": "ipc",
                "families": ["gshare_fast"],
                "budgets": [2048],
                "modes": ["ideal", "overridng"],
            }
        ]
        code, payload, _ = app.handle("POST", "/v1/jobs", {}, json.dumps(spec).encode())
        assert code == 400
        assert "overridng" in json.loads(payload)["error"]
        assert app.job_states() == {}

    def test_unknown_job_and_digest(self, env, tmp_path):
        app, _ = make_app(tmp_path)
        assert app.handle("GET", "/v1/jobs/feedface")[0] == 404
        assert app.handle("GET", "/v1/results/feedface")[0] == 404
        assert app.handle("GET", "/v1/attribution/gcc/nosuch/1024")[0] == 404
        assert app.handle("GET", "/v1/attribution/nosuch/gshare/1024")[0] == 404
        assert app.handle("GET", "/v1/attribution/gcc/gshare/abc")[0] == 400
        assert app.handle("GET", "/nope")[0] == 404

    def test_artifact_before_completion_conflicts(self, env, tmp_path):
        app, _ = make_app(tmp_path)
        code, doc = submit(app, mini_spec())
        assert code == 202
        code, payload, _ = app.handle("GET", f"/v1/jobs/{doc['job_id']}/figure")
        assert code == 409
        assert "queued" in json.loads(payload)["error"]

    def test_method_not_allowed(self, env, tmp_path):
        app, _ = make_app(tmp_path)
        assert app.handle("DELETE", "/healthz")[0] == 405
        assert app.handle("POST", "/v1/results/abc")[0] == 405

    def test_backpressure_429_when_queue_full(self, env, tmp_path, obs_enabled):
        app, _ = make_app(tmp_path, max_pending=1)
        code, _ = submit(app, mini_spec(name="one"))
        assert code == 202
        code, payload, _ = app.handle(
            "POST", "/v1/jobs", {}, json.dumps(mini_spec(name="two")).encode()
        )
        assert code == 429
        assert "retry" in json.loads(payload)["error"]
        # Re-submitting the *pending* spec is not new work: no 429.
        code, _ = submit(app, mini_spec(name="one"))
        assert code == 202

    def test_socket_level_garbage_and_oversize(self, env, tmp_path):
        config = ServiceConfig(
            data_dir=str(tmp_path / "svc"), workers=0, body_limit=1024
        )
        with DaemonHarness(config) as harness:
            raw = socket.create_connection(("127.0.0.1", harness.port), timeout=10)
            raw.sendall(b"BOGUS /x\r\n\r\n")
            assert raw.recv(400).startswith(b"HTTP/1.1 400 ")
            raw.close()

            conn = harness.connect(timeout=10)
            conn.request(
                "POST", "/v1/jobs", "x" * 2048, {"Content-Type": "application/json"}
            )
            assert conn.getresponse().status == 413
            conn.close()

    def test_healthz_and_metrics(self, env, tmp_path, obs_enabled):
        app, executor = make_app(tmp_path)
        code, health = get_json(app, "/healthz")
        assert code == 200 and health["ok"] is True
        run_job(app, executor, mini_spec())
        code, metrics = get_json(app, "/metrics")
        assert code == 200
        assert metrics["predictor_builds"] >= 1
        assert "counters" in metrics["metrics"]


# -- settled replies answered from memory --------------------------------------


def raw_request(method: str, path: str, body: bytes = b"", close: bool = False) -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {len(body)}\r\n"
    if close:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode() + body


def read_response(stream) -> bytes:
    """One whole response, head and body, from a socket's binary file."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = stream.readline()
        assert line, f"connection closed after {head!r}"
        head += line
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    return head + stream.read(length)


def count_handle_calls(monkeypatch, app) -> list:
    """Wrap ``app.handle`` so every dispatched request appends to a list."""
    calls = []
    handle = app.handle

    def counted(method, path, query=None, body=b""):
        calls.append((method, path))
        return handle(method, path, query, body)

    monkeypatch.setattr(app, "handle", counted)
    return calls


def fetch(conn, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
    conn.request(method, path, body)
    response = conn.getresponse()
    return response.status, response.read()


class TestSettledAnswers:
    def test_keep_alive_fetches_after_a_closing_fetch_stay_open(self, env, tmp_path):
        """A reply from memory carries the asking request's Connection
        header, not the one of the request that first filled the entry."""
        config = ServiceConfig(data_dir=str(tmp_path / "svc"), workers=1)
        with DaemonHarness(config) as harness:
            _, doc = harness.request_json("POST", "/v1/jobs", mini_spec())
            digest = harness.wait_settled(doc["job_id"])["figure_digest"]
            address = ("127.0.0.1", harness.port)
            with socket.create_connection(address, timeout=10) as raw:
                raw.sendall(raw_request("GET", f"/v1/results/{digest}", close=True))
                first = read_response(raw.makefile("rb"))
            assert b"\r\nConnection: close\r\n" in first
            with socket.create_connection(address, timeout=10) as raw:
                raw.sendall(raw_request("GET", f"/v1/results/{digest}") * 2)
                stream = raw.makefile("rb")
                replies = [read_response(stream) for _ in range(2)]
        body = first.partition(b"\r\n\r\n")[2]
        for reply in replies:
            head, _, served = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 ")
            assert b"\r\nConnection: keep-alive" in head
            assert served == body

    def test_settled_routes_answer_from_memory(self, env, tmp_path, monkeypatch):
        """After a first fetch, repeats of every warm route come back byte
        for byte without reaching the app."""
        spec = mini_spec()
        config = ServiceConfig(data_dir=str(tmp_path / "svc"), workers=1)
        with DaemonHarness(config) as harness:
            _, doc = harness.request_json("POST", "/v1/jobs", spec)
            job_id = doc["job_id"]
            status = harness.wait_settled(job_id)
            assert status["state"] == "completed"
            routes = {
                "results": ("GET", f"/v1/results/{status['figure_digest']}"),
                "status": ("GET", f"/v1/jobs/{job_id}"),
                "figure": ("GET", f"/v1/jobs/{job_id}/figure"),
                "manifest": ("GET", f"/v1/jobs/{job_id}/manifest"),
                "attribution": ("GET", "/v1/attribution/gcc/gshare/1024"),
                "resubmit": ("POST", "/v1/jobs", json.dumps(spec).encode()),
            }
            calls = count_handle_calls(monkeypatch, harness.daemon.app)
            with socket.create_connection(("127.0.0.1", harness.port), timeout=30) as raw:
                stream = raw.makefile("rb")

                def exchange(route) -> bytes:
                    raw.sendall(raw_request(*route))
                    return read_response(stream)

                first = {name: exchange(route) for name, route in routes.items()}
                dispatched = len(calls)
                for _ in range(3):
                    for name, route in routes.items():
                        assert exchange(route) == first[name], name
            assert len(calls) == dispatched
        for name, reply in first.items():
            assert reply.startswith(b"HTTP/1.1 200 "), (name, reply[:80])

    def test_answers_that_may_change_are_always_dispatched(
        self, env, tmp_path, monkeypatch
    ):
        """Queued status, 404, 409 and 202 reach the app on every request;
        once the job completes they read 200, and only then repeat from
        memory."""
        spec = mini_spec()
        body = json.dumps(spec).encode()
        probe, _ = make_app(tmp_path / "probe")
        job_id = submit(probe, spec)[1]["job_id"]  # same spec, same job id
        config = ServiceConfig(data_dir=str(tmp_path / "svc"), workers=0)
        with DaemonHarness(config) as harness:
            calls = count_handle_calls(monkeypatch, harness.daemon.app)
            conn = harness.connect()
            for _ in range(2):
                assert fetch(conn, "GET", f"/v1/jobs/{job_id}")[0] == 404
            for _ in range(2):
                code, reply = fetch(conn, "POST", "/v1/jobs", body)
                assert code == 202 and json.loads(reply)["job_id"] == job_id
            for _ in range(2):
                code, reply = fetch(conn, "GET", f"/v1/jobs/{job_id}")
                assert code == 200 and json.loads(reply)["state"] == "queued"
                assert fetch(conn, "GET", f"/v1/jobs/{job_id}/figure")[0] == 409
            assert len(calls) == 8

            assert harness.daemon.executor.run_pending() == 1
            code, reply = fetch(conn, "GET", f"/v1/jobs/{job_id}")
            assert code == 200 and json.loads(reply)["state"] == "completed"
            assert fetch(conn, "GET", f"/v1/jobs/{job_id}/figure")[0] == 200
            assert fetch(conn, "POST", "/v1/jobs", body)[0] == 200
            assert len(calls) == 11
            for _ in range(2):
                assert fetch(conn, "GET", f"/v1/jobs/{job_id}")[0] == 200
                assert fetch(conn, "GET", f"/v1/jobs/{job_id}/figure")[0] == 200
                assert fetch(conn, "POST", "/v1/jobs", body)[0] == 200
            # The query is not part of the key: a settled job's long-poll
            # is its settled status.
            assert fetch(conn, "GET", f"/v1/jobs/{job_id}?wait=5")[0] == 200
            assert len(calls) == 11
            conn.close()

    def test_answers_from_memory_reach_the_event_log(
        self, env, tmp_path, monkeypatch, obs_enabled
    ):
        """Answers from memory open no span; the daemon logs their count
        when it stops, and ``repro-stats service`` reports it."""
        log = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_LOG", str(log))
        path = "/v1/attribution/gcc/gshare/1024"
        config = ServiceConfig(data_dir=str(tmp_path / "svc"), workers=0)
        with DaemonHarness(config) as harness:
            for _ in range(2):
                assert harness.request_json("GET", path)[0] == 200
        rollup = service_rollup(read_run_events(log))
        assert rollup["requests"][f"GET {path}"]["count"] == 1
        assert rollup["response_cache_hits"] >= 1
        assert "answered from memory (settled replies, no span): 1" in render_service(
            rollup
        )


# -- graceful drain (real subprocess, real SIGTERM) ----------------------------


def repro_environment() -> dict[str, str]:
    return {name: value for name, value in os.environ.items() if name.startswith("REPRO_")}


def test_closing_an_app_restores_the_environment(tmp_path, monkeypatch):
    """An app defaults the stores it needs into the environment while it is
    open; closing it leaves the ``REPRO_*`` environment as it found it,
    whether a store was set before or not, and a second close does
    nothing."""
    monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    before = repro_environment()
    config = ServiceConfig(data_dir=str(tmp_path / "svc"))
    app = ServiceApp(config)
    assert os.environ["REPRO_RESULT_STORE"] == config.default_result_store
    assert os.environ["REPRO_TRACE_STORE"] == config.default_trace_store
    app.close()
    assert repro_environment() == before
    app.close()
    assert repro_environment() == before

    monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "mine"))
    before = repro_environment()
    app = ServiceApp(config)
    assert os.environ["REPRO_RESULT_STORE"] == str(tmp_path / "mine")
    assert os.environ["REPRO_TRACE_STORE"] == config.default_trace_store
    app.close()
    assert repro_environment() == before


class TestGracefulDrain:
    def test_sigterm_drains_without_torn_state(self, env, tmp_path):
        """SIGTERM mid-campaign: clean exit, no torn files, resumable."""
        data_dir = tmp_path / "svc"
        child_env = dict(os.environ)
        child_env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service.daemon",
                "--data-dir",
                str(data_dir),
                "--port",
                "0",
                "--workers",
                "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            port = int(line.rsplit(":", 1)[1].split()[0])
            spec = mini_spec(
                name="drain", families=("gshare", "bimodal"), budgets=(1024, 2048)
            )
            conn = __import__("http.client", fromlist=["x"]).HTTPConnection(
                "127.0.0.1", port, timeout=30
            )
            conn.request("POST", "/v1/jobs", json.dumps(spec))
            doc = json.loads(conn.getresponse().read())
            job_id = doc["job_id"]
            conn.close()
            time.sleep(0.8)  # let a worker claim cells
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # No torn store entries anywhere under the service state.
        leftovers = [
            str(path)
            for path in data_dir.rglob("*")
            if ".tmp." in path.name
        ]
        assert leftovers == []
        # Whatever state the job landed in is a legal one...
        status_path = data_dir / "jobs" / job_id / "status.json"
        state = json.loads(status_path.read_text())["state"]
        assert state in JOB_STATES
        # ...and a fresh service instance finishes it to the same bytes a
        # clean run produces.
        app, executor = make_app(tmp_path)  # same data_dir: tmp_path/svc
        for resumable_id in app.recover():
            executor.enqueue(resumable_id)
        executor.run_pending()
        code, status = get_json(app, f"/v1/jobs/{job_id}")
        assert code == 200 and status["state"] == "completed"
        served, _ = app.jobs.figure_bytes(job_id)

        from repro.harness.cli import RUNNERS
        from repro.harness.figconfig import parse_config, run_target

        assert served.decode() == run_target(parse_config(spec), RUNNERS)
