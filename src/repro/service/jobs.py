"""Job and blob stores backing the prediction service.

A *job* is one submitted figure-config spec.  Its identity is a content
digest over the spec document **plus** the per-kind sweep configuration
the daemon's environment resolves to (instructions, engine, warm-up
fraction, machine config) — the same recipe the result store keys cells
with one level down — so two clients asking the same question at the same
scale share one job, while a scale or engine change is a different job,
never a false hit.

On disk, one directory per job under ``<data>/jobs/<job_id>``::

    spec.json      the submitted config document + pinned cfg + trace ctx
    status.json    the job state machine (atomic writes, monotone terminal)
    run/           the campaign run directory (campaign.json, shards/,
                   queue/, claims/) — the execution backend is exactly
                   :mod:`repro.harness.campaign`

States move ``queued -> running -> completed | failed | partial``;
``failed``/``partial`` jobs go back to ``queued`` on resubmission (the
rerun path), and ``completed`` is terminal and immutable: once
``status.json`` says completed, no write path will ever regress it — the
invariant the service's Hypothesis suite pins.

Rendered artifacts (figure text, run manifest, attribution tables) are
content-addressed: figures and manifests land in the :class:`BlobStore`
(sha256 of the bytes *is* the name, verified on every read, corrupt blobs
deleted and re-rendered from the result store), attribution tables in a
:class:`repro.harness.resultstore.ResultStore` keyed by the accuracy
cell's content key plus a view marker, so repeated fetches are pure cache
hits with zero predictor work.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from repro import obs
from repro.common.atomic import atomic_path, atomic_write_json
from repro.common.errors import ConfigurationError, ReproError
from repro.harness.figconfig import TargetConfig, grid_shards, parse_config
from repro.harness.resultstore import ResultCell, ResultStore, result_digest

#: Bumped when the job/spec/status layout changes.
JOB_SCHEMA = 1

#: Every job state, in lifecycle order.
JOB_STATES = ("queued", "running", "partial", "failed", "completed")

#: States no write path may leave.
TERMINAL_STATES = ("completed",)

#: Config modes a submission may use (``inferred`` needs its base configs
#: loaded alongside it, which a single-document submission cannot supply).
SUBMITTABLE_MODES = ("runner", "sweep")


class JobError(ReproError):
    """A job operation failed (unknown id, bad spec, unrenderable state)."""


def is_terminal(state: str) -> bool:
    """True for states a job can never leave."""
    return state in TERMINAL_STATES


# -- blob store ----------------------------------------------------------------


class BlobStore:
    """Content-addressed bytes: the digest of the content is the name.

    Every read recomputes the digest; a mismatch (bit rot, truncation)
    deletes the blob and reports a miss, so the fetch path re-renders from
    the result store instead of serving garbage.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, digest: str) -> Path:
        return self.root / digest

    def save(self, data: bytes) -> str:
        """Persist ``data``; returns its sha256 digest (idempotent)."""
        digest = hashlib.sha256(data).hexdigest()
        path = self.path(digest)
        if not path.exists():
            with atomic_path(path) as tmp:
                with open(tmp, "wb") as handle:
                    handle.write(data)
        _count("blob_writes")
        return digest

    def load(self, digest: str) -> bytes | None:
        """The blob's bytes, or None when absent or corrupt (deleted)."""
        path = self.path(digest)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        if hashlib.sha256(data).hexdigest() != digest:
            _count("blob_corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        _count("blob_hits")
        return data


def _count(key: str, n: int = 1) -> None:
    if obs.enabled():
        obs.counter(f"service.{key}").inc(n)


# -- job identity --------------------------------------------------------------


def normalize_spec(doc: dict) -> dict:
    """The spec document in canonical (JSON round-tripped) form."""
    return json.loads(json.dumps(doc, sort_keys=True))


def job_id_for(doc: dict, cfg_by_kind: dict, benchmarks: list[str]) -> str:
    """Content-addressed job id: spec + resolved sweep configuration.

    ``cfg_by_kind`` carries instructions/engine/warm-up (accuracy) and
    machine config (ipc); ``benchmarks`` pins the grid the environment
    resolves for configs that omit an explicit benchmark list.  The result
    store's schema/code versions ride inside the cell keys, not here: a
    version bump changes cell keys (forcing recomputation) without
    changing which *job* a spec names.
    """
    return result_digest(
        {
            "job_schema": JOB_SCHEMA,
            "spec": normalize_spec(doc),
            "cfg": cfg_by_kind,
            "benchmarks": list(benchmarks),
        }
    )


# -- the job store -------------------------------------------------------------


class JobStore:
    """All jobs under one service data directory."""

    def __init__(self, jobs_root: str, blobs: BlobStore) -> None:
        self.root = Path(jobs_root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.blobs = blobs

    # -- paths -----------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.root / job_id

    def spec_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "spec.json"

    def status_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "status.json"

    def run_dir(self, job_id: str) -> str:
        return str(self.job_dir(job_id) / "run")

    def exists(self, job_id: str) -> bool:
        return self.spec_path(job_id).exists()

    def job_ids(self) -> list[str]:
        """Every job id on disk (sorted for determinism)."""
        try:
            return sorted(
                entry for entry in os.listdir(self.root)
                if (self.root / entry / "spec.json").exists()
            )
        except OSError:
            return []

    # -- submission ------------------------------------------------------

    def parse_submission(self, doc: object) -> TargetConfig:
        """Validate one submitted config document (raises on any problem)."""
        if not isinstance(doc, dict):
            raise ConfigurationError("submission body must be a JSON object")
        config = parse_config(doc, path="<submitted>")
        if config.mode not in SUBMITTABLE_MODES:
            raise ConfigurationError(
                f"mode {config.mode!r} cannot be submitted directly "
                f"(submit one of {SUBMITTABLE_MODES}; inferred targets need "
                f"their base configs, which a single submission cannot carry)"
            )
        if not config.grids:
            raise ConfigurationError(
                "submission has no grid — the service plans campaigns from "
                "grids (a sweep's own, or a runner's built-in figure or "
                "study; tables have none)"
            )
        return config

    def submit(self, doc: dict, trace_ctx: dict | None = None) -> dict:
        """Create (or re-touch) the job for ``doc``; returns its status.

        New spec -> job dir + campaign + plan, state ``queued``.  Existing
        job: ``completed`` returns as-is (the zero-work fast path);
        ``failed``/``partial`` is re-planned and set back to ``queued``
        (the rerun path); ``queued``/``running`` is returned untouched
        (the executor dedupes in-flight ids).
        """
        from repro.harness import campaign
        from repro.harness.scale import benchmark_names
        from repro.harness.sweep import grid_cfg

        config = self.parse_submission(doc)
        cfg_by_kind = {grid.kind: grid_cfg(grid.kind) for grid in config.grids}
        benchmarks = benchmark_names()
        job_id = job_id_for(doc, cfg_by_kind, benchmarks)
        job_dir = self.job_dir(job_id)
        job_dir.mkdir(parents=True, exist_ok=True)
        shards = [shard for grid in config.grids for shard in grid_shards(grid)]
        if not self.spec_path(job_id).exists():
            atomic_write_json(
                self.spec_path(job_id),
                {
                    "schema": JOB_SCHEMA,
                    "job_id": job_id,
                    "spec": normalize_spec(doc),
                    "cfg": cfg_by_kind,
                    "benchmarks": benchmarks,
                    "trace": trace_ctx,
                    "created_unix": time.time(),
                },
            )
        campaign.create_campaign(
            self.run_dir(job_id), shards, cfg_by_kind, label=f"service:{config.name}"
        )
        status = self.status(job_id)
        if status["state"] == "completed":
            _count("submit_hits")
            return status
        if status["state"] in ("failed", "partial"):
            # Rerun: re-plan the damaged classes so the queue holds work.
            campaign.plan(self.run_dir(job_id))
            return self._set_state(job_id, "queued", error=None)
        if status["state"] == "running":
            return status
        campaign.plan(self.run_dir(job_id))
        _count("submits")
        return self._set_state(job_id, "queued")

    def spec(self, job_id: str) -> dict:
        """The pinned spec document (raises JobError for unknown ids)."""
        try:
            with open(self.spec_path(job_id), encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            raise JobError(f"unknown job {job_id!r}") from None
        if not isinstance(data, dict) or data.get("schema") != JOB_SCHEMA:
            raise JobError(f"job {job_id!r} has an unreadable spec")
        return data

    def config(self, job_id: str) -> TargetConfig:
        """The job's parsed TargetConfig."""
        return self.parse_submission(self.spec(job_id)["spec"])

    # -- status ----------------------------------------------------------

    def _read_status(self, job_id: str) -> dict | None:
        try:
            with open(self.status_path(job_id), encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return data if isinstance(data, dict) else None

    def status(self, job_id: str) -> dict:
        """The job's current status document (classifying live cells).

        Terminal jobs serve their frozen ``status.json`` untouched — no
        scan, no store probes: the poll fast path.  Non-terminal jobs fold
        in a fresh campaign scan so the five-class counts are live.
        """
        if not self.exists(job_id):
            raise JobError(f"unknown job {job_id!r}")
        status = self._read_status(job_id) or {
            "schema": JOB_SCHEMA,
            "job_id": job_id,
            "state": "queued",
            "error": None,
            "updated_unix": time.time(),
        }
        if is_terminal(status.get("state", "")):
            return status
        from repro.harness import campaign

        try:
            cells = campaign.scan(self.run_dir(job_id))
            counts = campaign.class_counts(cells)
            status["counts"] = counts
            status["cells"] = len(cells)
        except ReproError:
            pass  # campaign not pinned yet: submission raced us
        return status

    def _set_state(self, job_id: str, state: str, **fields: object) -> dict:
        """Atomically move the job to ``state`` (monotone at terminal).

        A job already in a terminal state is never rewritten — late
        writers (a worker finishing after a rerun already completed the
        job) lose silently, keeping observed histories monotone.
        """
        if state not in JOB_STATES:
            raise JobError(f"unknown job state {state!r}")
        current = self._read_status(job_id)
        if current is not None and is_terminal(current.get("state", "")):
            return current
        status = dict(current or {})
        status.update(
            {
                "schema": JOB_SCHEMA,
                "job_id": job_id,
                "state": state,
                "updated_unix": time.time(),
            }
        )
        status.update(fields)
        atomic_write_json(self.status_path(job_id), status)
        return status

    # -- execution -------------------------------------------------------

    def execute(self, job_id: str, should_stop=None, drain=None) -> dict:
        """Drain the job's campaign and render; returns the final status.

        ``drain(run_dir, trace_ctx)`` overrides how the campaign queue is
        worked (the spawn-mode executor runs it in a child process); the
        default runs :func:`repro.harness.campaign.run_worker` in-process.
        ``should_stop`` is forwarded so a SIGTERM drain finishes the
        current cell and returns with the job back in ``queued``.
        """
        from repro.harness import campaign

        spec = self.spec(job_id)
        if is_terminal(self.status(job_id)["state"]):
            return self.status(job_id)
        self._set_state(job_id, "running")
        run_dir = self.run_dir(job_id)
        trace_ctx = spec.get("trace")
        adopted = trace_ctx is not None
        if adopted:
            obs.adopt_context(trace_ctx)
        try:
            if drain is not None:
                drain(run_dir, trace_ctx)
            else:
                campaign.run_worker(run_dir, should_stop=should_stop)
        except Exception as exc:  # a dead worker is a classified state
            _count("worker_errors")
            return self._finalize(job_id, error=f"{type(exc).__name__}: {exc}")
        finally:
            if adopted:
                obs.adopt_context(None)
        if should_stop is not None and should_stop():
            status = self._finalize(job_id, stopped=True)
        else:
            status = self._finalize(job_id)
        return status

    def _finalize(
        self, job_id: str, error: str | None = None, stopped: bool = False
    ) -> dict:
        """Classify the drained campaign and land the job in its state."""
        from repro.harness import campaign

        cells = campaign.scan(self.run_dir(job_id))
        counts = campaign.class_counts(cells)
        done = counts["completed"] + counts["results_missing"]
        fields = {"counts": counts, "cells": len(cells), "error": error}
        if done == len(cells) and cells:
            try:
                rendered = self.render(job_id)
            except Exception as exc:
                _count("render_errors")
                return self._set_state(
                    job_id, "failed", **fields, error=f"{type(exc).__name__}: {exc}"
                )
            fields.update(rendered)
            return self._set_state(job_id, "completed", **fields)
        if stopped:
            # Graceful drain: the queue still holds work; a restarted
            # daemon's recovery sweep re-enqueues queued jobs.
            return self._set_state(job_id, "queued", **fields)
        if counts["failed"]:
            return self._set_state(job_id, "failed", **fields)
        return self._set_state(job_id, "partial", **fields)

    # -- rendering & fetch -----------------------------------------------

    def render(self, job_id: str) -> dict:
        """Render the job's figure + manifest into the blob store.

        Rendering resolves through the ordinary sweeps with the result
        store active, so a drained campaign renders with zero predictor
        builds; the returned digests are recorded in ``status.json``.
        """
        from repro.harness.cli import RUNNERS
        from repro.harness.figconfig import run_target
        from repro.obs.manifest import build_manifest

        config = self.config(job_id)
        started = time.perf_counter()
        with obs.span("service.render", job=job_id, target=config.name):
            text = run_target(config, RUNNERS)
        duration = time.perf_counter() - started
        figure_digest = self.blobs.save(text.encode("utf-8"))
        manifest = build_manifest(config.name, text, duration)
        manifest_bytes = (
            json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
        ).encode("utf-8")
        manifest_digest = self.blobs.save(manifest_bytes)
        return {
            "target": config.name,
            "figure_digest": figure_digest,
            "manifest_digest": manifest_digest,
            "render_seconds": duration,
        }

    def figure_bytes(self, job_id: str) -> tuple[bytes, str]:
        """(bytes, digest) of the job's rendered figure.

        Blob hit -> serve; corrupt/missing blob -> re-render from the
        result store (warm: zero predictor work) and serve the fresh copy.
        """
        status = self.status(job_id)
        if status.get("state") != "completed":
            raise JobError(
                f"job {job_id!r} is {status.get('state', 'unknown')!r}; "
                f"the figure exists only once it completes"
            )
        digest = status.get("figure_digest", "")
        data = self.blobs.load(digest) if digest else None
        if data is None:
            _count("figure_reheals")
            rendered = self.render(job_id)
            digest = rendered["figure_digest"]
            data = self.blobs.load(digest)
            if data is None:  # pragma: no cover - the blob was just written
                raise JobError(f"job {job_id!r} figure blob unreadable after re-render")
        return data, digest

    def manifest_bytes(self, job_id: str) -> tuple[bytes, str]:
        """(bytes, digest) of the job's run manifest (self-healing)."""
        status = self.status(job_id)
        if status.get("state") != "completed":
            raise JobError(
                f"job {job_id!r} is {status.get('state', 'unknown')!r}; "
                f"the manifest exists only once it completes"
            )
        digest = status.get("manifest_digest", "")
        data = self.blobs.load(digest) if digest else None
        if data is None:
            rendered = self.render(job_id)
            digest = rendered["manifest_digest"]
            data = self.blobs.load(digest)
            if data is None:  # pragma: no cover
                raise JobError(f"job {job_id!r} manifest blob unreadable after re-render")
        return data, digest


# -- attribution cache ---------------------------------------------------------


class AttributionCache:
    """Per-branch attribution tables, memoized under accuracy cell keys.

    The cache is an ordinary :class:`ResultStore` (checksummed entries,
    corruption self-healing, eviction), keyed by the accuracy cell's
    content-key payload plus a ``view`` marker so an attribution entry can
    never collide with a sweep result.
    """

    def __init__(self, root: str) -> None:
        self.store = ResultStore(root)

    def key_for(self, benchmark: str, family: str, budget_bytes: int) -> str:
        from repro.harness.resultstore import accuracy_key_payload
        from repro.harness.sweep import grid_cfg

        cfg = grid_cfg("accuracy")
        payload = accuracy_key_payload(
            benchmark,
            family,
            budget_bytes,
            cfg["instructions"],
            cfg["engine"],
            cfg["warmup_fraction"],
        )
        return result_digest({**payload, "view": "attribution"})

    def fetch(self, benchmark: str, family: str, budget_bytes: int) -> dict:
        """The attribution table for one cell (computed once, then cached)."""
        from repro.harness.experiment import measure_accuracy
        from repro.harness.scale import warmup_branches
        from repro.harness.sweep import grid_cfg
        from repro.workloads.spec2000 import spec2000_trace

        cfg = grid_cfg("accuracy")
        key = self.key_for(benchmark, family, budget_bytes)
        cell = ResultCell("accuracy", benchmark, family, budget_bytes)

        def compute() -> dict:
            from repro.predictors import registry

            trace = spec2000_trace(benchmark, instructions=cfg["instructions"])
            predictor = registry.build(family, budget_bytes)
            result = measure_accuracy(
                predictor,
                trace,
                warmup_branches=warmup_branches(trace.conditional_branch_count),
                engine=cfg["engine"],
                attribution=True,
            )
            return {
                "benchmark": benchmark,
                "family": family,
                "budget_bytes": budget_bytes,
                "branches": result.branches,
                "mispredictions": result.mispredictions,
                "misprediction_percent": result.misprediction_percent,
                "sites": result.attribution.to_rows(),
            }

        payload = self.store.get_or_compute(key, cell, compute)
        return {"digest": key, **payload}
