"""Experiment scale control.

The paper simulates >1 billion instructions per benchmark; a pure-Python
reproduction cannot, so every experiment honours two settings
(:mod:`repro.common.settings`):

* ``REPRO_SCALE`` — float multiplier (default 1.0) on per-benchmark trace
  length.  CI runs at 1.0 finish in minutes; ``REPRO_SCALE=5`` approaches
  the asymptotic accuracy numbers recorded in EXPERIMENTS.md.
* ``REPRO_BENCHMARKS`` — comma-separated subset of workload names (default
  the twelve SPEC stand-ins).

Accuracy at small scale is *training-limited* for table predictors (cold
counters are a larger share of predictions than on a 1B-instruction run),
which is why the defaults already include a warm-up fraction and why longer
runs reduce absolute misprediction rates without changing orderings.
"""

from __future__ import annotations

from repro.common import settings
from repro.workloads.spec2000 import spec2000_names

#: Default per-benchmark trace length (instructions) for accuracy figures.
ACCURACY_INSTRUCTIONS = 600_000
#: Default per-benchmark trace length for IPC (cycle-simulation) figures.
IPC_INSTRUCTIONS = 400_000
#: Fraction of branches used to warm predictors before scoring (the paper
#: skips the first 500M instructions of each benchmark).
WARMUP_FRACTION = 0.2


def accuracy_instructions() -> int:
    """Per-benchmark trace length for accuracy figures at REPRO_SCALE."""
    return max(int(ACCURACY_INSTRUCTIONS * settings.get("REPRO_SCALE")), 10_000)


def ipc_instructions() -> int:
    """Per-benchmark trace length for IPC figures at REPRO_SCALE."""
    return max(int(IPC_INSTRUCTIONS * settings.get("REPRO_SCALE")), 10_000)


def benchmark_names() -> list[str]:
    """Benchmarks to run: the REPRO_BENCHMARKS subset or all twelve SPEC
    stand-ins (the default figure grid).

    Subsets validate against the full workload catalog, not just the SPEC
    set, so scenario profiles and oracle kernels are selectable the same
    way; repeated names are dropped (order preserving).
    """
    return settings.get("REPRO_BENCHMARKS") or spec2000_names()


def resolved_config() -> dict:
    """The fully-resolved experiment configuration as one dict.

    This is the configuration a run manifest records: everything the
    settings and defaults determine about an experiment, so a
    ``results/*.txt`` can be reproduced from its sidecar.
    """
    from repro.predictors import registry  # deferred: layering
    from repro.service.config import service_env_summary  # deferred: layering

    get = settings.get
    return {
        "scale": get("REPRO_SCALE"),
        "benchmarks": benchmark_names(),
        "engine": get("REPRO_ENGINE"),
        "jobs": get("REPRO_JOBS"),
        "trace_store": get("REPRO_TRACE_STORE"),
        "result_store": get("REPRO_RESULT_STORE"),
        "accuracy_instructions": accuracy_instructions(),
        "ipc_instructions": ipc_instructions(),
        "warmup_fraction": WARMUP_FRACTION,
        # Campaign-orchestrator settings (claim staleness / poll cadence):
        # they shape multi-worker scheduling, so a manifest records them.
        "campaign": {
            "run_dir": get("REPRO_RUN_DIR"),
            "stale_seconds": get("REPRO_CAMPAIGN_STALE_SECONDS"),
            "poll_seconds": get("REPRO_CAMPAIGN_POLL_SECONDS"),
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
