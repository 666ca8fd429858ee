"""SPECint 2000 stand-in workload profiles.

The paper evaluates on the 12 SPEC 2000 integer benchmarks.  We cannot ship
SPEC, so each benchmark gets a synthetic profile whose *predictor-relevant*
personality is modelled on the benchmark's published character: static
branch footprint, branch bias mix, history-correlation structure, loop
behaviour, working-set size and exploitable ILP.  DESIGN.md records this
substitution; the accuracy/IPC *orderings* the paper reports emerge from
these structural properties, not from magic constants.

Rough difficulty map (64KB-budget misprediction ballparks from the paper's
Figure 6 and the branch-prediction literature):

* easy   (~1-4%):  eon, vortex, gap, perlbmk — biased branches dominate;
* medium (~4-8%):  gcc, gzip, parser, crafty, bzip2 — mixed correlation;
* hard   (~8-14%): mcf, vpr, twolf — data-dependent, noisy branches.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache

from repro import obs
from repro.common import settings
from repro.common.errors import ConfigurationError
from repro.workloads.program import MemoryConfig, ProgramExecutor
from repro.workloads.store import active_store
from repro.workloads.synth import PredicateMix, WorkloadProfile, build_program
from repro.workloads.trace import ColumnarTrace

#: Average dynamic instructions per conditional branch in SPECint-like code;
#: used to convert a requested branch count into an instruction budget.
INSTRUCTIONS_PER_BRANCH = 6


def _profiles() -> dict[str, WorkloadProfile]:
    kib = 1024
    mib = 1024 * 1024
    return {
        # -- compression: moderate branches, modest working sets --------------
        "gzip": WorkloadProfile(
            name="gzip",
            seed=164,
            functions=5,
            predicate_mix=PredicateMix(
                biased=0.5, short_parity=0.26, long_parity=0.06, pattern=0.08, hidden=0.10
            ),
            hard_noise=0.05,
            bias_strength=0.985,
            loop_trip_mean=18.0,
            memory=MemoryConfig(working_set_bytes=2 * mib, array_bytes=8 * kib),
            ilp=3.0,
        ),
        "bzip2": WorkloadProfile(
            name="bzip2",
            seed=256,
            functions=5,
            predicate_mix=PredicateMix(
                biased=0.48, short_parity=0.26, long_parity=0.08, pattern=0.08, hidden=0.10
            ),
            hard_noise=0.07,
            bias_strength=0.985,
            loop_trip_mean=24.0,
            loop_trip_fixed_fraction=0.75,
            memory=MemoryConfig(working_set_bytes=4 * mib, array_bytes=16 * kib),
            ilp=2.9,
        ),
        # -- place & route / layout: notoriously hard branches ----------------
        "vpr": WorkloadProfile(
            name="vpr",
            seed=175,
            functions=7,
            predicate_mix=PredicateMix(
                biased=0.34, short_parity=0.24, long_parity=0.08, pattern=0.04, hidden=0.200
            ),
            hard_noise=0.10,
            easy_noise=0.015,
            bias_strength=0.992,
            memory=MemoryConfig(working_set_bytes=4 * mib, array_bytes=8 * kib),
            ilp=2.5,
        ),
        "twolf": WorkloadProfile(
            name="twolf",
            seed=300,
            functions=7,
            predicate_mix=PredicateMix(
                biased=0.29, short_parity=0.24, long_parity=0.10, pattern=0.03, hidden=0.22
            ),
            hard_noise=0.12,
            easy_noise=0.02,
            bias_strength=0.99,
            memory=MemoryConfig(working_set_bytes=2 * mib, array_bytes=8 * kib),
            ilp=2.4,
        ),
        # -- compilers / interpreters: huge static footprint ------------------
        "gcc": WorkloadProfile(
            name="gcc",
            seed=176,
            functions=24,
            call_probability=0.2,
            predicate_mix=PredicateMix(
                biased=0.52, short_parity=0.26, long_parity=0.06, pattern=0.06, hidden=0.10
            ),
            hard_noise=0.05,
            bias_strength=0.985,
            memory=MemoryConfig(working_set_bytes=8 * mib, array_bytes=8 * kib),
            ilp=2.6,
        ),
        "perlbmk": WorkloadProfile(
            name="perlbmk",
            seed=253,
            functions=18,
            call_probability=0.24,
            predicate_mix=PredicateMix(
                biased=0.58, short_parity=0.24, long_parity=0.05, pattern=0.06, hidden=0.07
            ),
            hard_noise=0.07,
            bias_strength=0.985,
            memory=MemoryConfig(working_set_bytes=4 * mib, array_bytes=8 * kib),
            ilp=2.8,
        ),
        # -- graph / pointer codes ---------------------------------------------
        "mcf": WorkloadProfile(
            name="mcf",
            seed=181,
            functions=4,
            predicate_mix=PredicateMix(
                biased=0.32, short_parity=0.22, long_parity=0.12, pattern=0.02, hidden=0.20
            ),
            hard_noise=0.10,
            easy_noise=0.015,
            bias_strength=0.992,
            random_access_fraction=0.3,
            stack_access_fraction=0.15,
            load_density=0.28,
            memory=MemoryConfig(working_set_bytes=64 * mib, array_bytes=32 * kib),
            ilp=1.9,
        ),
        "parser": WorkloadProfile(
            name="parser",
            seed=197,
            functions=12,
            call_probability=0.2,
            predicate_mix=PredicateMix(
                biased=0.46, short_parity=0.28, long_parity=0.08, pattern=0.06, hidden=0.12
            ),
            hard_noise=0.07,
            bias_strength=0.985,
            memory=MemoryConfig(working_set_bytes=8 * mib, array_bytes=8 * kib),
            ilp=2.5,
        ),
        # -- games / search -----------------------------------------------------
        "crafty": WorkloadProfile(
            name="crafty",
            seed=186,
            functions=10,
            predicate_mix=PredicateMix(
                biased=0.41, short_parity=0.30, long_parity=0.10, pattern=0.05, hidden=0.14
            ),
            hard_noise=0.07,
            bias_strength=0.98,
            loop_trip_mean=10.0,
            memory=MemoryConfig(working_set_bytes=2 * mib, array_bytes=8 * kib),
            ilp=3.1,
        ),
        "eon": WorkloadProfile(
            name="eon",
            seed=252,
            functions=14,
            call_probability=0.26,
            predicate_mix=PredicateMix(
                biased=0.665, short_parity=0.20, long_parity=0.03, pattern=0.065, hidden=0.04
            ),
            hard_noise=0.04,
            easy_noise=0.006,
            bias_strength=0.99,
            loop_trip_fixed_fraction=0.8,
            memory=MemoryConfig(working_set_bytes=1 * mib, array_bytes=4 * kib),
            ilp=3.3,
        ),
        # -- databases / object stores ------------------------------------------
        "gap": WorkloadProfile(
            name="gap",
            seed=254,
            functions=10,
            predicate_mix=PredicateMix(
                biased=0.6, short_parity=0.22, long_parity=0.05, pattern=0.06, hidden=0.07
            ),
            hard_noise=0.05,
            bias_strength=0.99,
            memory=MemoryConfig(working_set_bytes=8 * mib, array_bytes=16 * kib),
            ilp=2.9,
        ),
        "vortex": WorkloadProfile(
            name="vortex",
            seed=255,
            functions=16,
            call_probability=0.24,
            predicate_mix=PredicateMix(
                biased=0.68, short_parity=0.20, long_parity=0.03, pattern=0.06, hidden=0.03
            ),
            hard_noise=0.04,
            easy_noise=0.006,
            bias_strength=0.992,
            loop_trip_fixed_fraction=0.8,
            memory=MemoryConfig(working_set_bytes=8 * mib, array_bytes=8 * kib),
            ilp=3.2,
        ),
    }


@lru_cache(maxsize=1)
def spec2000_profiles() -> dict[str, WorkloadProfile]:
    """The 12 SPECint 2000 stand-in profiles, keyed by benchmark name."""
    return _profiles()


def spec2000_names() -> list[str]:
    """Benchmark names in the paper's customary order."""
    return [
        "gzip",
        "vpr",
        "gcc",
        "mcf",
        "crafty",
        "parser",
        "eon",
        "perlbmk",
        "gap",
        "vortex",
        "bzip2",
        "twolf",
    ]


def get_profile(name: str):
    """Profile for workload ``name`` (ConfigurationError if unknown).

    Resolution goes through the workload catalog, so any registered
    workload — SPEC stand-in, scenario profile, string-matching oracle
    kernel, or an externally registered one — is addressable by every
    harness consumer that funnels through this call (sweeps, campaign
    workers, trace/result stores, figure configs).
    """
    from repro.workloads.catalog import get_workload

    return get_workload(name).profile


_trace_cache: OrderedDict[tuple[str, int, int, str | None], ColumnarTrace] = OrderedDict()
_trace_cache_stats = {"hits": 0, "misses": 0, "evictions": 0}

_executor_runs = 0


def executor_run_count() -> int:
    """Times this process invoked ``ProgramExecutor`` to generate a trace.

    A warm-store run of a whole figure grid should leave this at zero —
    the drill ``scripts/drill.py trace-store`` asserts exactly
    that (via the mirrored ``workloads.executor_runs`` obs counter)."""
    return _executor_runs


def reset_executor_runs() -> None:
    """Zero the executor-run counter (start of a measurement window)."""
    global _executor_runs
    _executor_runs = 0


def trace_cache_info() -> dict:
    """Hit/miss/eviction counts and current occupancy of the trace cache.

    Tests and profiling read it to see how often a process re-decoded a
    benchmark trace.
    """
    return {
        "hits": _trace_cache_stats["hits"],
        "misses": _trace_cache_stats["misses"],
        "evictions": _trace_cache_stats["evictions"],
        "entries": len(_trace_cache),
        "capacity": settings.get("REPRO_TRACE_CACHE"),
    }


def clear_trace_cache() -> None:
    """Drop every cached trace and zero the cache statistics."""
    _trace_cache.clear()
    for key in _trace_cache_stats:
        _trace_cache_stats[key] = 0


def _builder_for(profile):
    """The program builder for ``profile``: its catalog entry's builder
    when the profile is the registered one, else a dispatch on profile
    type (covers ad-hoc profiles such as fault-biased oracle variants)."""
    from repro.workloads.catalog import get_workload, has_workload
    from repro.workloads.stringmatch import (
        StringMatchProfile,
        build_stringmatch_program,
    )

    if has_workload(profile.name):
        spec = get_workload(profile.name)
        if spec.profile == profile:
            return spec.build
    if isinstance(profile, StringMatchProfile):
        return build_stringmatch_program
    if isinstance(profile, WorkloadProfile):
        return build_program
    raise ConfigurationError(
        f"no program builder for profile type {type(profile).__name__}; "
        "register it in the workload catalog"
    )


def _generate_trace(profile, instructions: int, seed: int) -> ColumnarTrace:
    """Build and execute the workload program — the expensive path every
    cache layer exists to avoid."""
    global _executor_runs
    _executor_runs += 1
    if obs.enabled():
        obs.counter("workloads.executor_runs").inc()
    program = _builder_for(profile)(profile)
    executor = ProgramExecutor(
        program, seed=seed, memory=profile.memory, hidden_bits=profile.hidden_bits
    )
    return executor.run(instructions)


def _resolve_trace(name: str, instructions: int, seed: int, store) -> ColumnarTrace:
    """Produce one trace via the on-disk store when enabled, else generate.

    Generated and loaded traces have the same columns, so downstream
    results are byte-identical whichever path ran."""
    profile = get_profile(name)
    if store is not None:
        return store.get_or_generate(
            profile,
            instructions,
            seed,
            lambda: _generate_trace(profile, instructions, seed),
        )
    return _generate_trace(profile, instructions, seed)


def _cached_trace(name: str, instructions: int, seed: int) -> ColumnarTrace:
    """LRU-cached trace lookup; the on-disk trace store (when enabled)
    sits under this layer.

    The key includes the active store root (or ``None``), so a store
    enabled or switched mid-process still receives every trace this
    process asks for, instead of the request being served from memory
    and the store left cold."""
    store = active_store()
    key = (name, instructions, seed, None if store is None else str(store.root))
    cached = _trace_cache.get(key)
    if cached is not None:
        _trace_cache_stats["hits"] += 1
        _trace_cache.move_to_end(key)
        return cached
    _trace_cache_stats["misses"] += 1
    trace = _resolve_trace(name, instructions, seed, store)
    _trace_cache[key] = trace
    # Each process (each campaign worker) owns one cache, so the setting
    # bounds per-worker memory, not a shared pool.
    capacity = settings.get("REPRO_TRACE_CACHE")
    while len(_trace_cache) > capacity:
        _trace_cache.popitem(last=False)
        _trace_cache_stats["evictions"] += 1
    return trace


def spec2000_trace(
    name: str,
    instructions: int | None = None,
    branches: int | None = None,
    seed: int = 1,
) -> ColumnarTrace:
    """Dynamic trace for benchmark ``name``.

    Give either an instruction budget or an (approximate) conditional-branch
    budget; traces are cached in-process, so replaying the same benchmark
    across many predictors costs one execution.  When ``REPRO_TRACE_STORE``
    names a directory, generation additionally persists through the
    content-addressed store and warm runs load the trace from disk
    instead of executing anything.
    """
    if (instructions is None) == (branches is None):
        raise ConfigurationError("specify exactly one of instructions= or branches=")
    if instructions is None:
        instructions = branches * INSTRUCTIONS_PER_BRANCH
    if instructions < 100:
        raise ConfigurationError("trace must cover at least 100 instructions")
    return _cached_trace(name, instructions, seed)


def warm_trace_store(
    benchmarks: list[str] | None = None,
    instruction_counts: list[int] | None = None,
    seed: int = 1,
) -> dict:
    """Prewarm the active trace store for the given grid.

    Bypasses the in-process LRU on purpose: the point is to guarantee the
    *disk* entries exist (for other processes and future runs), and a
    parent that pre-populated its own memory cache would hide store hits
    from forked sweep workers.  Returns a small report of what was warmed.

    Raises :class:`ConfigurationError` when no store is configured.
    """
    from repro.harness.scale import resolved_config

    store = active_store()
    if store is None:
        raise ConfigurationError(
            "no trace store configured (set REPRO_TRACE_STORE or pass --trace-store)"
        )
    config = resolved_config()
    if benchmarks is None:
        benchmarks = list(config["benchmarks"])
    if instruction_counts is None:
        # Both figure-grid trace lengths at the current REPRO_SCALE.
        instruction_counts = sorted(
            {int(config["accuracy_instructions"]), int(config["ipc_instructions"])}
        )
    warmed = []
    generated = 0
    for name in benchmarks:
        profile = get_profile(name)
        for instructions in instruction_counts:
            if store.load(profile, instructions, seed) is None:
                store.get_or_generate(
                    profile,
                    instructions,
                    seed,
                    lambda p=profile, n=instructions: _generate_trace(p, n, seed),
                )
                generated += 1
            warmed.append({"benchmark": name, "instructions": int(instructions)})
    return {
        "store": str(store.root),
        "entries": warmed,
        "generated": generated,
        "already_present": len(warmed) - generated,
    }
