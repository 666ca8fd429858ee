"""Service configuration: flags, settings, and their defaults.

:class:`ServiceConfig` fields without a flag default through the settings
table (:mod:`repro.common.settings`, the ``REPRO_SERVICE_*`` names), and
:func:`service_env_summary` reads the same table, so
:func:`repro.harness.scale.resolved_config` records the daemon's knobs in
run manifests.  Tests construct :class:`ServiceConfig` directly with
explicit values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.common import settings
from repro.common.errors import ConfigurationError


def _setting(name: str):
    """A dataclass field defaulting to setting ``name`` at construction."""
    return field(default_factory=lambda: settings.get(name))


@dataclass
class ServiceConfig:
    """One daemon's resolved configuration."""

    data_dir: str
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is logged and queryable
    workers: int = _setting("REPRO_SERVICE_WORKERS")
    worker_mode: str = "thread"  # "thread" | "spawn"
    max_pending: int = _setting("REPRO_SERVICE_MAX_PENDING")
    body_limit: int = _setting("REPRO_SERVICE_BODY_LIMIT")
    request_timeout: float = _setting("REPRO_SERVICE_REQUEST_TIMEOUT")
    max_wait: float = _setting("REPRO_SERVICE_MAX_WAIT")
    drain_timeout: float = _setting("REPRO_SERVICE_DRAIN_TIMEOUT")

    def __post_init__(self) -> None:
        if self.worker_mode not in ("thread", "spawn"):
            raise ConfigurationError(
                f"worker_mode must be 'thread' or 'spawn', got {self.worker_mode!r}"
            )
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")

    # -- derived layout --------------------------------------------------

    @property
    def jobs_dir(self) -> str:
        return os.path.join(self.data_dir, "jobs")

    @property
    def blobs_dir(self) -> str:
        return os.path.join(self.data_dir, "blobs")

    @property
    def attribution_dir(self) -> str:
        return os.path.join(self.data_dir, "attribution")

    @property
    def default_result_store(self) -> str:
        return os.path.join(self.data_dir, "results")

    @property
    def default_trace_store(self) -> str:
        return os.path.join(self.data_dir, "traces")


def service_env_summary() -> dict:
    """The service knobs the settings resolve to now (manifests)."""
    get = settings.get
    return {
        "data_dir": get("REPRO_SERVICE_DIR"),
        "workers": get("REPRO_SERVICE_WORKERS"),
        "max_pending": get("REPRO_SERVICE_MAX_PENDING"),
        "body_limit": get("REPRO_SERVICE_BODY_LIMIT"),
        "request_timeout": get("REPRO_SERVICE_REQUEST_TIMEOUT"),
        "max_wait": get("REPRO_SERVICE_MAX_WAIT"),
        "drain_timeout": get("REPRO_SERVICE_DRAIN_TIMEOUT"),
    }
