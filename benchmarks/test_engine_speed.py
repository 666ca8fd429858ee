"""Scalar vs batch engine throughput, per predictor family.

Gated behind pytest-benchmark's opt-in flag so the figure-regeneration
suite stays unaffected::

    PYTHONPATH=src python -m pytest benchmarks/test_engine_speed.py --benchmark-enable -s

The comparison pins the engine's performance claims on the gcc trace at
the default REPRO_SCALE: every registered family is timed on both engines
in interleaved scalar/batch pairs, must produce identical
``AccuracyResult``s, and the median times and median per-pair ratio are
printed as a table.  The counter-table families (bimodal, gshare,
gshare.fast, tournament) must run >= 25x faster batched, multicomponent
>= 40x, and the families whose cores form hashed indices or inputs from
each branch's PC and history: e-gskew >= 110x, 2Bc-gskew >= 110x,
perceptron >= 150x, Bi-Mode >= 90x, bimode.fast >= 80x, loop >= 70x
(each floor lies between the readings of cores fed NumPy index arrays and
of cores that form the indices themselves).  Every gate reads the median
of the per-pair ratios, so one run slowed by the host moves it little.

A second table splits the batch side by C core: for one batch
measurement per family (best of 3), the events every core of
:mod:`repro.native` handled and its ns per event, so that a kernel change
can be compared core by core.

A third table times the cycle simulator on the same benchmark at the
default IPC trace length: the Figure 7 families in both modes, the
per-block reference loop (``tests/uarch_reference.py``) against
``CycleSimulator``, which must give identical ``SimulationResult``s at
least 15x faster, paired the same way (the simulator reads 39-96x, so a
3x gate would pass a simulator ten times slower than today's).

The differential suites prove bit-exactness; this file measures speed.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro import native
from repro.harness.experiment import measure_accuracy
from repro.harness.scale import accuracy_instructions, ipc_instructions
from repro.harness.sweep import make_policy
from repro.predictors import registry
from repro.predictors.gshare import GsharePredictor
from repro.uarch.simulator import CycleSimulator
from repro.workloads.spec2000 import get_profile, spec2000_trace
from tests.uarch_reference import ReferenceSimulator

#: 2**18 two-bit counters = 64KB — the paper's mid-budget gshare.
ENTRIES = 262_144

#: Budget every family is built at for the per-family table.
FAMILY_BUDGET = 64 * 1024

#: Required batch/scalar speed-up per family; families not listed are
#: reported only.
REQUIRED_SPEEDUP = {
    "bimodal": 25.0,
    "gshare": 25.0,
    "gshare_fast": 25.0,
    "tournament": 25.0,
    "multicomponent": 40.0,
    "2bcgskew": 110.0,
    "bimode": 90.0,
    "bimode_fast": 80.0,
    "egskew": 110.0,
    "loop": 70.0,
    "perceptron": 150.0,
}


@pytest.fixture(autouse=True)
def require_benchmarks(request):
    if not request.config.getoption("--benchmark-enable"):
        pytest.skip("engine speed suite runs only with --benchmark-enable")


@pytest.fixture(scope="module")
def trace():
    trace = spec2000_trace("gcc", instructions=accuracy_instructions())
    trace.branch_arrays()  # pay the array extraction outside the timings
    return trace


#: Interleaved (slow, fast) run pairs behind each speed gate.
PAIRS = 5


def paired(slow, fast):
    """Run ``slow`` and ``fast`` alternately ``PAIRS`` times; each returns
    ``(seconds, result)``.  Returns the median slow and fast seconds, the
    median of the per-pair slow/fast ratios, and each side's last result."""
    slow_runs, fast_runs = [], []
    for _ in range(PAIRS):
        slow_runs.append(slow())
        fast_runs.append(fast())
    return (
        statistics.median(seconds for seconds, _ in slow_runs),
        statistics.median(seconds for seconds, _ in fast_runs),
        statistics.median(s / f for (s, _), (f, _) in zip(slow_runs, fast_runs)),
        slow_runs[-1][1],
        fast_runs[-1][1],
    )


def timed_accuracy(build, trace, engine):
    """A ``run()`` timing one fresh predictor on ``engine``: ``(seconds,
    result)``."""

    def run():
        predictor = build()
        start = time.perf_counter()
        result = measure_accuracy(predictor, trace, engine=engine)
        return time.perf_counter() - start, result

    return run


def engine_pairs(build, trace):
    """:func:`paired` over the scalar and batch engines."""
    return paired(timed_accuracy(build, trace, "scalar"), timed_accuracy(build, trace, "batch"))


@pytest.fixture(scope="module")
def family_timings(trace):
    """(scalar seconds, batch seconds, speed-up, scalar result, batch
    result) per registered family, medians over interleaved pairs;
    prints the table once."""
    timings = {}
    for family in registry.family_names():
        def build(family=family):
            return registry.build(family, FAMILY_BUDGET)

        timings[family] = engine_pairs(build, trace)
    print(f"\n{'family':16s} {'scalar ms':>10s} {'batch ms':>9s} {'speedup':>8s}")
    for family, (scalar_time, batch_time, speedup, _, _) in timings.items():
        print(
            f"{family:16s} {scalar_time * 1e3:10.1f} {batch_time * 1e3:9.1f} "
            f"{speedup:7.1f}x"
        )
    return timings


def test_scalar_gshare_throughput(benchmark, trace):
    result = benchmark(
        lambda: measure_accuracy(GsharePredictor(ENTRIES), trace, engine="scalar")
    )
    assert result.branches > 0


def test_batch_gshare_throughput(benchmark, trace):
    result = benchmark(
        lambda: measure_accuracy(GsharePredictor(ENTRIES), trace, engine="batch")
    )
    assert result.branches > 0


def test_batch_speedup_at_least_10x(trace):
    """Head-to-head: median ratio of interleaved pairs, identical results
    required."""
    def build():
        return GsharePredictor(ENTRIES)

    scalar_time, batch_time, speedup, scalar_result, batch_result = engine_pairs(
        build, trace
    )
    assert scalar_result == batch_result
    print(
        f"\nscalar {scalar_time * 1e3:.1f}ms  batch {batch_time * 1e3:.1f}ms  "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 10.0


@pytest.mark.parametrize("family", registry.family_names())
def test_family_batch_speedup(family, family_timings):
    """Identical results on both engines, and the required speed-up."""
    _, _, speedup, scalar_result, batch_result = family_timings[family]
    assert scalar_result == batch_result
    assert speedup >= REQUIRED_SPEEDUP.get(family, 0.0)


# -- primitives --------------------------------------------------------------------


def capture_cores(monkeypatch, calls: list) -> None:
    """Route every C core call the batch engine makes through a wrapper
    that appends ``(core, events, seconds)`` to ``calls``; a core's events
    are the branches it replays."""
    call_core = native._call

    def core(name, events, *args):
        start = time.perf_counter()
        result = call_core(name, events, *args)
        calls.append((name, events, time.perf_counter() - start))
        return result

    monkeypatch.setattr(native, "_call", core)


def test_primitive_costs(trace, family_timings, monkeypatch):
    """Per family, the events each C core handled in one batch measurement
    and its ns per event (fastest of 3 runs); the wrapped run must give the
    unwrapped result."""
    calls: list = []
    capture_cores(monkeypatch, calls)
    print(f"\n{'family':16s}{'core':>22s}{'events':>14s}{'ns/event':>10s}")
    for family in registry.family_names():
        best: dict[str, tuple[int, float]] = {}
        for _ in range(3):
            calls.clear()
            result = measure_accuracy(registry.build(family, FAMILY_BUDGET), trace, engine="batch")
            assert result == family_timings[family][4]
            for name in dict.fromkeys(n for n, _, _ in calls):
                events = sum(e for n, e, _ in calls if n == name)
                seconds = sum(t for n, _, t in calls if n == name)
                best[name] = (events, min(best.get(name, (0, float("inf")))[1], seconds))
        for name, (events, seconds) in best.items():
            per_event = f"{seconds * 1e9 / events:10.1f}" if events else f"{'-':>10s}"
            print(f"{family:16s}{name:>22s}{events:14,d}{per_event}")


# -- cycle simulator -------------------------------------------------------------

#: The Figure 7 families and modes the IPC table covers.
IPC_FAMILIES = ("gshare_fast", "2bcgskew", "perceptron", "multicomponent")
IPC_MODES = ("ideal", "overriding")


@pytest.fixture(scope="module")
def ipc_timings():
    """(reference seconds, simulator seconds, speed-up, reference result,
    simulator result) per (family, mode) on gcc, medians over interleaved
    pairs; prints the table once."""
    trace = spec2000_trace("gcc", instructions=ipc_instructions())
    ilp = get_profile("gcc").ilp

    def timed(simulator_type, family, mode):
        def run():
            simulator = simulator_type(make_policy(family, FAMILY_BUDGET, mode), ilp=ilp)
            start = time.perf_counter()
            result = simulator.run(trace)
            return time.perf_counter() - start, result

        return run

    timings = {}
    for family in IPC_FAMILIES:
        for mode in IPC_MODES:
            timings[family, mode] = paired(
                timed(ReferenceSimulator, family, mode), timed(CycleSimulator, family, mode)
            )
    print(
        f"\n{'family':16s} {'mode':11s} {'reference ms':>12s} "
        f"{'simulator ms':>12s} {'speedup':>8s}"
    )
    for (family, mode), (reference_time, simulator_time, speedup, _, _) in timings.items():
        print(
            f"{family:16s} {mode:11s} {reference_time * 1e3:12.1f} "
            f"{simulator_time * 1e3:12.1f} {speedup:7.1f}x"
        )
    return timings


@pytest.mark.parametrize("mode", IPC_MODES)
@pytest.mark.parametrize("family", IPC_FAMILIES)
def test_simulator_speedup(family, mode, ipc_timings):
    """Identical results to the per-block loop, at least 15x faster."""
    _, _, speedup, reference_result, result = ipc_timings[family, mode]
    assert result == reference_result
    assert speedup >= 15.0
