"""Property-based tests: arbitrary client interleavings, monotone jobs.

Hypothesis drives random submit/poll/fetch/drain sequences against a
fresh service instance per example (all examples share one result/trace
store, so only the first example pays for predictor work — later ones
exercise the same state machine purely from cache).  The pinned
invariants:

* **Monotonicity** — once any observation reports a job ``completed``,
  every later observation reports ``completed`` (terminal states are
  absorbing; nothing a client does can un-complete a job).
* **Idempotence** — every successful figure/result fetch of one job
  returns byte-identical payloads, no matter where in the interleaving
  it happens.
* **Identity** — resubmitting the same spec always yields the same
  content-addressed job id.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.service_helpers import SCALE, close_apps, make_app, mini_spec  # noqa: F401 - close_apps

OPS = ("submit", "poll", "figure", "result", "drain")

#: States a job may legally report.
LEGAL = {"queued", "running", "partial", "failed", "completed"}


@pytest.fixture(scope="module", autouse=True)
def module_env(tmp_path_factory):
    """Module-wide env: shared stores so examples after the first are
    pure cache traffic (Hypothesis runs dozens of them)."""
    root = tmp_path_factory.mktemp("svcprop")
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_SCALE", SCALE)
    patcher.setenv("REPRO_BENCHMARKS", "gcc,eon")
    patcher.setenv("REPRO_TRACE_STORE", str(root / "traces"))
    patcher.setenv("REPRO_RESULT_STORE", str(root / "results"))
    for var in ("REPRO_LOG", "REPRO_RUN_DIR", "REPRO_CAMPAIGN_ABORT_AFTER"):
        patcher.delenv(var, raising=False)
    yield root
    patcher.undo()


def fresh_service(root: Path):
    data_dir = Path(tempfile.mkdtemp(prefix="svc", dir=root))
    return make_app(data_dir)


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=14))
def test_interleavings_never_regress_completed(module_env, ops):
    app, executor = fresh_service(module_env)
    spec = mini_spec()
    job_id: str | None = None
    seen_completed = False
    figure_payloads: set[bytes] = set()
    result_payloads: set[bytes] = set()

    def observe(state: str) -> None:
        nonlocal seen_completed
        assert state in LEGAL
        if seen_completed:
            assert state == "completed", (
                f"status regressed from completed to {state!r} after {ops}"
            )
        if state == "completed":
            seen_completed = True

    for op in ops:
        if op == "submit":
            code, payload, _ = app.handle(
                "POST", "/v1/jobs", {}, json.dumps(spec).encode()
            )
            assert code in (200, 202)
            doc = json.loads(payload)
            if job_id is None:
                job_id = doc["job_id"]
            assert doc["job_id"] == job_id  # content-addressed identity
            observe(doc["state"])
            executor.enqueue(job_id)
        elif op == "drain":
            executor.run_pending()
        elif job_id is None:
            continue  # poll/fetch before any submit: nothing to observe
        elif op == "poll":
            code, payload, _ = app.handle("GET", f"/v1/jobs/{job_id}")
            assert code == 200
            observe(json.loads(payload)["state"])
        elif op == "figure":
            code, payload, _ = app.handle("GET", f"/v1/jobs/{job_id}/figure")
            assert code in (200, 409)
            if code == 200:
                figure_payloads.add(bytes(payload))
                observe("completed")  # a served figure implies completion
        elif op == "result":
            code, status_payload, _ = app.handle("GET", f"/v1/jobs/{job_id}")
            digest = json.loads(status_payload).get("figure_digest")
            if digest:
                code, payload, _ = app.handle("GET", f"/v1/results/{digest}")
                assert code == 200
                result_payloads.add(bytes(payload))

    # Idempotence: however many fetches happened, one distinct payload.
    assert len(figure_payloads) <= 1
    assert len(result_payloads) <= 1
    if figure_payloads and result_payloads:
        assert figure_payloads == result_payloads


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_fetches_idempotent_after_completion(module_env, data):
    """Any number of fetches after completion: byte-identical payloads."""
    app, executor = fresh_service(module_env)
    spec = mini_spec()
    code, payload, _ = app.handle("POST", "/v1/jobs", {}, json.dumps(spec).encode())
    doc = json.loads(payload)
    executor.enqueue(doc["job_id"])
    executor.run_pending()
    code, payload, _ = app.handle("GET", f"/v1/jobs/{doc['job_id']}")
    status = json.loads(payload)
    assert status["state"] == "completed"

    fetches = data.draw(
        st.lists(st.sampled_from(["figure", "manifest", "result"]), min_size=2, max_size=8)
    )
    by_kind: dict[str, set[bytes]] = {}
    for kind in fetches:
        if kind == "figure":
            code, payload, _ = app.handle("GET", f"/v1/jobs/{doc['job_id']}/figure")
        elif kind == "manifest":
            code, payload, _ = app.handle("GET", f"/v1/jobs/{doc['job_id']}/manifest")
        else:
            code, payload, _ = app.handle(
                "GET", f"/v1/results/{status['figure_digest']}"
            )
        assert code == 200
        by_kind.setdefault(kind, set()).add(bytes(payload))
    for kind, payloads in by_kind.items():
        assert len(payloads) == 1, f"{kind} fetches were not idempotent"
