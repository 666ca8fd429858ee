"""Workload catalog: the name -> (profile, program builder) registry.

Every harness consumer resolves workloads by *name* through
:func:`repro.workloads.spec2000.get_profile` and ``spec2000_trace`` — the
sweeps, the campaign executor's forked workers, the trace/result stores and
the declarative figure configs all funnel through those two calls.  This
module gives that funnel a registry backend, exactly the way the predictor
registry (PR 4) gave the family list one: registering a workload here
enrolls it in sweeps, content-addressed stores, parallel execution and
``repro-figures --config`` targets with zero harness edits.

A catalog entry pairs a *profile* (any frozen dataclass whose fields fully
determine the trace bytes — :class:`~repro.workloads.synth.WorkloadProfile`
for synthesized programs, :class:`~repro.workloads.stringmatch
.StringMatchProfile` for string-matching kernels) with a *builder* that
turns the profile into a laid-out :class:`~repro.workloads.cfg.Program`.
Generation always runs the standard :class:`ProgramExecutor` over the built
program, so every workload — SPEC stand-in, scenario profile or
Morris-Pratt/KMP oracle kernel — emits the same ``ColumnarTrace`` columns
and is content-addressed by the same
:func:`repro.workloads.store.trace_digest` recipe (the profile dataclass is
serialized field-by-field into the digest).

The builtin population (12 SPEC stand-ins, the scenario profiles, the
oracle string-matching kernels) is registered lazily on first lookup so
importing this module stays cheap and free of cycles.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, is_dataclass

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class WorkloadSpec:
    """One catalog entry: how to build and execute a named workload.

    ``profile`` must be a dataclass instance with at least ``name``,
    ``memory`` and ``hidden_bits`` fields (the executor personality) —
    its full field set is what the trace store digests.  ``build`` maps the
    profile to a laid-out program; ``kind`` tags the workload class for
    reporting (``spec2000`` / ``scenario`` / ``stringmatch`` / external).
    """

    profile: object
    build: Callable[[object], object]
    kind: str

    @property
    def name(self) -> str:
        """The workload's registry name (the profile's name field)."""
        return self.profile.name


_registry: dict[str, WorkloadSpec] = {}
_builtins_loaded = False


def register_workload(spec: WorkloadSpec, replace: bool = False) -> WorkloadSpec:
    """Register ``spec`` under its profile name.

    Duplicate names are refused unless ``replace`` is set — a silent
    overwrite would quietly change what every store digest and sweep cell
    for that name means.
    """
    if not is_dataclass(spec.profile):
        raise ConfigurationError(
            f"workload profile for {spec.kind!r} must be a dataclass "
            f"(its fields are the content-address), got {type(spec.profile).__name__}"
        )
    name = spec.name
    if not name or not isinstance(name, str):
        raise ConfigurationError("workload profile needs a non-empty string name")
    if not replace and name in _registry:
        raise ConfigurationError(f"workload {name!r} is already registered")
    _registry[name] = spec
    return spec


def _ensure_builtins() -> None:
    """Populate the builtin workloads once (lazy: avoids import cycles)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    from repro.workloads.spec2000 import spec2000_profiles
    from repro.workloads.stringmatch import (
        build_stringmatch_program,
        stringmatch_profiles,
    )
    from repro.workloads.synth import build_program, scenario_profiles

    for profile in spec2000_profiles().values():
        register_workload(WorkloadSpec(profile, build_program, "spec2000"))
    for profile in scenario_profiles().values():
        register_workload(WorkloadSpec(profile, build_program, "scenario"))
    for profile in stringmatch_profiles().values():
        register_workload(
            WorkloadSpec(profile, build_stringmatch_program, "stringmatch")
        )


def has_workload(name: str) -> bool:
    """True when ``name`` resolves to a catalog entry."""
    _ensure_builtins()
    return name in _registry


def get_workload(name: str) -> WorkloadSpec:
    """The catalog entry for ``name`` (ConfigurationError if unknown)."""
    _ensure_builtins()
    try:
        return _registry[name]
    except KeyError:
        known = ", ".join(sorted(_registry))
        raise ConfigurationError(
            f"unknown workload {name!r}; known: {known}"
        ) from None


def workload_names(kind: str | None = None) -> list[str]:
    """Every registered workload name (optionally one ``kind``), sorted
    registration-first for the builtin kinds so lists read naturally."""
    _ensure_builtins()
    return [
        spec.name
        for spec in _registry.values()
        if kind is None or spec.kind == kind
    ]
