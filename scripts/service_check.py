"""End-to-end check of the prediction service daemon, as CI runs it.

Boots a real ``repro-serve`` subprocess on an ephemeral port and drives
the full client arc against it:

1. liveness: ``/healthz`` answers before any job exists;
2. submit -> long-poll -> fetch: a small sweep spec completes and its
   figure is **byte-identical** to what ``repro-figures --config`` renders
   from the same stores (the serving layer adds nothing and loses
   nothing);
3. cache-hit resubmission: the same spec answers 200/completed with zero
   additional predictor builds (via ``/metrics``);
4. reduced loadtest: ``scripts/service_loadtest.py`` hammers the cached
   figure digest and must clear a conservative floor (CI machines are
   noisy; the full 10k req/s claim is pinned by the gated benchmark
   ``benchmarks/test_service_throughput.py``), again with zero predictor
   builds during the load phase;
5. graceful drain: SIGTERM exits 0 and leaves no ``*.tmp.*`` staging
   droppings anywhere under the service state;
6. telemetry: the daemon's event log yields a ``repro-stats service``
   rollup whose request spans and answers from memory cover the traffic
   just sent (every loadtest fetch is a repeat of a settled reply).

Exit status 0 means every stage behaved; any mismatch aborts with a
diagnostic.  ``--report-out`` writes a JSON report (CI uploads it).

Usage::

    PYTHONPATH=src python scripts/service_check.py [--report-out FILE]
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

CHECK_ENV = {
    "REPRO_SCALE": "0.05",
    "REPRO_BENCHMARKS": "gcc,eon",
}

#: Conservative CI floor (req/s); the real 10k claim is the gated benchmark.
CI_FLOOR = 2_000

SPEC = {
    "schema": 1,
    "target": "service_check",
    "mode": "sweep",
    "title": "Service check sweep",
    "grids": [
        {
            "kind": "accuracy",
            "families": ["gshare", "bimodal"],
            "budgets": [2048, 4096],
            "benchmarks": ["gcc"],
        }
    ],
}


def fail(message: str, proc=None) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    if proc is not None:
        print(f"--- exit {proc.returncode} ---", file=sys.stderr)
        print(f"--- stdout ---\n{proc.stdout}", file=sys.stderr)
        print(f"--- stderr ---\n{proc.stderr}", file=sys.stderr)
    raise SystemExit(1)


def request(port: int, method: str, path: str, body: dict | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, None if body is None else json.dumps(body))
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def request_json(port: int, method: str, path: str, body: dict | None = None):
    status, payload = request(port, method, path, body)
    return status, json.loads(payload)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report-out", default="", help="write a JSON report here")
    parser.add_argument(
        "--floor", type=float, default=CI_FLOOR, help="loadtest req/s floor"
    )
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="service_check"))
    data_dir = workdir / "svc"
    event_log = workdir / "events.jsonl"
    env = dict(os.environ, **CHECK_ENV)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_TRACE_STORE"] = str(workdir / "traces")
    env["REPRO_RESULT_STORE"] = str(workdir / "results")
    env["REPRO_LOG"] = str(event_log)
    report: dict = {"stages": {}}

    print("== stage 1: boot daemon ==")
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service.daemon",
            "--data-dir",
            str(data_dir),
            "--port",
            "0",
            "--workers",
            "2",
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = daemon.stdout.readline()
        if "listening on" not in line:
            daemon.kill()
            fail(f"daemon did not announce itself: {line!r}")
        port = int(line.rsplit(":", 1)[1].split()[0])
        status, health = request_json(port, "GET", "/healthz")
        if status != 200 or health.get("ok") is not True:
            fail(f"healthz answered {status}: {health}")
        report["stages"]["boot"] = {"port": port}
        print(f"   listening on port {port}")

        print("== stage 2: submit -> poll -> fetch ==")
        status, doc = request_json(port, "POST", "/v1/jobs", SPEC)
        if status != 202:
            fail(f"submit answered {status}: {doc}")
        job_id = doc["job_id"]
        deadline = time.time() + 300
        while True:
            status, doc = request_json(port, "GET", f"/v1/jobs/{job_id}?wait=10")
            if doc["state"] not in ("queued", "running"):
                break
            if time.time() > deadline:
                fail(f"job never settled: {doc}")
        if doc["state"] != "completed":
            fail(f"job settled as {doc['state']}: {doc}")
        status, served = request(port, "GET", f"/v1/jobs/{job_id}/figure")
        if status != 200:
            fail(f"figure fetch answered {status}")
        digest = doc["figure_digest"]
        status, via_digest = request(port, "GET", f"/v1/results/{digest}")
        if via_digest != served:
            fail("digest fetch differs from figure fetch")

        # Byte-identity vs the CLI on the same stores.
        config_path = workdir / "spec.json"
        config_path.write_text(json.dumps(SPEC))
        out_dir = workdir / "cli-out"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.harness.cli",
                "--config",
                str(config_path),
                "--output-dir",
                str(out_dir),
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            fail("repro-figures --config failed", proc)
        cli_bytes = (out_dir / "service_check.txt").read_bytes()
        if cli_bytes != served + b"\n":
            fail(
                f"served figure != repro-figures output "
                f"({len(served)} vs {len(cli_bytes)} bytes)"
            )
        report["stages"]["roundtrip"] = {
            "job_id": job_id,
            "figure_digest": digest,
            "byte_identical": True,
        }
        print(f"   job {job_id[:12]} completed; bytes match the CLI")

        print("== stage 3: cache-hit resubmission ==")
        _, before = request_json(port, "GET", "/metrics")
        status, doc = request_json(port, "POST", "/v1/jobs", SPEC)
        if status != 200 or doc["state"] != "completed":
            fail(f"resubmit was not a completed cache hit: {status} {doc}")
        _, after = request_json(port, "GET", "/metrics")
        delta = after["predictor_builds"] - before["predictor_builds"]
        if delta != 0:
            fail(f"cache-hit resubmission built {delta} predictors")
        report["stages"]["cache_hit"] = {"predictor_builds_delta": delta}
        print("   resubmit: 200 completed, zero builds")

        print("== stage 4: reduced loadtest ==")
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "service_loadtest.py"),
                "--port",
                str(port),
                "--path",
                f"/v1/results/{digest}",
                "--connections",
                "4",
                "--pipeline",
                "16",
                "--duration",
                "5",
                "--floor",
                str(args.floor),
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=180,
        )
        if proc.returncode != 0:
            fail("loadtest below floor or errored", proc)
        load_report = json.loads(proc.stdout)
        _, final = request_json(port, "GET", "/metrics")
        load_delta = final["predictor_builds"] - after["predictor_builds"]
        if load_delta != 0:
            fail(f"load phase built {load_delta} predictors")
        report["stages"]["loadtest"] = load_report
        print(
            f"   {load_report['requests_per_second']:.0f} req/s "
            f"(p99 {load_report['p99_ms']:.2f}ms), zero builds"
        )

        print("== stage 5: graceful drain ==")
        daemon.send_signal(signal.SIGTERM)
        try:
            code = daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            fail("daemon did not exit within 60s of SIGTERM")
        if code != 0:
            fail(f"daemon exited {code} on SIGTERM\n{daemon.stderr.read()}")
        torn = [str(p) for p in data_dir.rglob("*") if ".tmp." in p.name]
        if torn:
            fail(f"torn staging files survived the drain: {torn}")
        report["stages"]["drain"] = {"exit_code": code, "torn_files": 0}
        print("   SIGTERM: exit 0, no torn files")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    print("== stage 6: telemetry rollup ==")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs.cli", "service", str(event_log), "--json"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        fail("repro-stats service failed", proc)
    rollup = json.loads(proc.stdout)
    request_total = sum(
        entry["count"] for entry in rollup.get("requests", {}).values()
    )
    cached = rollup.get("response_cache_hits", 0)
    if rollup.get("starts", 0) < 1 or request_total < 3:
        fail(f"rollup missed the traffic: {rollup}")
    if cached < load_report["requests"]:
        fail(
            f"rollup counts {cached} answers from memory, fewer than the "
            f"{load_report['requests']} repeated fetches of the loadtest"
        )
    report["stages"]["telemetry"] = {
        "starts": rollup["starts"],
        "stops": rollup["stops"],
        "request_spans": request_total,
        "response_cache_hits": cached,
    }
    print(f"   {request_total} request spans, {cached} answers from memory rolled up")

    report["ok"] = True
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print("service check: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
