"""Experiment scale control.

The paper simulates >1 billion instructions per benchmark; a pure-Python
reproduction cannot, so every experiment honours two environment variables:

* ``REPRO_SCALE`` — float multiplier (default 1.0) on per-benchmark trace
  length.  CI runs at 1.0 finish in minutes; ``REPRO_SCALE=5`` approaches
  the asymptotic accuracy numbers recorded in EXPERIMENTS.md.
* ``REPRO_BENCHMARKS`` — comma-separated subset of benchmark names (default
  all twelve).

Accuracy at small scale is *training-limited* for table predictors (cold
counters are a larger share of predictions than on a 1B-instruction run),
which is why the defaults already include a warm-up fraction and why longer
runs reduce absolute misprediction rates without changing orderings.
"""

from __future__ import annotations

import os

from repro.common.errors import ConfigurationError
from repro.workloads.spec2000 import spec2000_names

#: Default per-benchmark trace length (instructions) for accuracy figures.
ACCURACY_INSTRUCTIONS = 600_000
#: Default per-benchmark trace length for IPC (cycle-simulation) figures.
IPC_INSTRUCTIONS = 400_000
#: Fraction of branches used to warm predictors before scoring (the paper
#: skips the first 500M instructions of each benchmark).
WARMUP_FRACTION = 0.2


def scale_factor() -> float:
    """The REPRO_SCALE multiplier (>= 0.01)."""
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"REPRO_SCALE must be a number, got {raw!r}") from None
    if value < 0.01:
        raise ConfigurationError(f"REPRO_SCALE must be >= 0.01, got {value}")
    return value


def accuracy_instructions() -> int:
    """Per-benchmark trace length for accuracy figures at REPRO_SCALE."""
    return max(int(ACCURACY_INSTRUCTIONS * scale_factor()), 10_000)


def ipc_instructions() -> int:
    """Per-benchmark trace length for IPC figures at REPRO_SCALE."""
    return max(int(IPC_INSTRUCTIONS * scale_factor()), 10_000)


def benchmark_names() -> list[str]:
    """Benchmarks to run: REPRO_BENCHMARKS subset or all twelve SPEC
    stand-ins (the default figure grid).

    Subsets validate against the full workload catalog, not just the SPEC
    set, so scenario profiles and oracle kernels are selectable the same
    way.  Repeated names are deduplicated (order preserving): a duplicated
    entry would otherwise silently run a benchmark twice and double-weight
    it in every mean.
    """
    from repro.workloads.catalog import workload_names  # deferred: layering

    raw = os.environ.get("REPRO_BENCHMARKS")
    if not raw:
        return spec2000_names()
    names = list(dict.fromkeys(name.strip() for name in raw.split(",") if name.strip()))
    known = set(workload_names())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ConfigurationError(f"unknown benchmarks in REPRO_BENCHMARKS: {unknown}")
    if not names:
        raise ConfigurationError("REPRO_BENCHMARKS is set but names no benchmarks")
    return names


def resolved_config() -> dict:
    """The fully-resolved experiment configuration as one dict.

    This is the configuration a run manifest records: everything the
    environment variables and defaults determine about an experiment, so a
    ``results/*.txt`` can be reproduced from its sidecar.
    """
    from repro.harness.campaign import (  # deferred: layering
        poll_seconds_default,
        stale_seconds_default,
    )
    from repro.harness.experiment import default_engine, default_jobs  # deferred: layering
    from repro.harness.resultstore import result_store_path  # deferred: layering
    from repro.predictors import registry  # deferred: layering
    from repro.service.config import service_env_summary  # deferred: layering
    from repro.workloads.store import store_path  # deferred: layering

    return {
        "scale": scale_factor(),
        "benchmarks": benchmark_names(),
        "engine": default_engine(),
        "jobs": default_jobs(),
        "trace_store": store_path(),
        "result_store": result_store_path(),
        "accuracy_instructions": accuracy_instructions(),
        "ipc_instructions": ipc_instructions(),
        "warmup_fraction": WARMUP_FRACTION,
        # Campaign-orchestrator settings (claim staleness / poll cadence):
        # they shape multi-worker scheduling, so a manifest records them.
        "campaign": {
            "run_dir": os.environ.get("REPRO_RUN_DIR", "").strip() or None,
            "stale_seconds": stale_seconds_default(),
            "poll_seconds": poll_seconds_default(),
        },
        # The resolved predictor specs: which module registered each family
        # and the capability flags every consumer dispatched on.
        "families": {
            spec.name: {
                "module": spec.module,
                "config_type": spec.config_type.__name__,
                "batch_kernel": spec.batch_kernel,
                "single_cycle": spec.single_cycle,
                "override_eligible": spec.override_eligible,
                "state_neutral_peek": spec.state_neutral_peek,
            }
            for spec in registry.specs()
        },
        # Serving-layer knobs (queue bound, timeouts, worker pool): the
        # daemon's manifest-visible configuration.
        "service": service_env_summary(),
    }


def warmup_branches(total_branches: int) -> int:
    """Branches to train (not score) at the head of a trace."""
    return int(total_branches * WARMUP_FRACTION)
