"""Experiment harness: measurements, sweeps, aggregation, figure regeneration."""

from repro.harness.aggregate import arithmetic_mean, geometric_mean, harmonic_mean
from repro.harness.analysis import (
    compare_predictors,
    history_context_profile,
    per_site_accuracy,
)
from repro.harness.experiment import (
    AccuracyResult,
    OverrideResult,
    measure_accuracy,
    measure_override,
)
from repro.harness.campaign import Shard, SweepExecutionError, execute_sweep
from repro.harness.scale import (
    accuracy_instructions,
    benchmark_names,
    ipc_instructions,
    resolved_config,
    warmup_branches,
)

__all__ = [
    "AccuracyResult",
    "OverrideResult",
    "Shard",
    "SweepExecutionError",
    "accuracy_instructions",
    "arithmetic_mean",
    "benchmark_names",
    "compare_predictors",
    "execute_sweep",
    "geometric_mean",
    "harmonic_mean",
    "history_context_profile",
    "ipc_instructions",
    "measure_accuracy",
    "measure_override",
    "per_site_accuracy",
    "resolved_config",
    "warmup_branches",
]
