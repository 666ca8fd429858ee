"""Scalar vs batch engine throughput, per predictor family.

Gated behind pytest-benchmark's opt-in flag so the figure-regeneration
suite stays unaffected::

    PYTHONPATH=src python -m pytest benchmarks/test_engine_speed.py --benchmark-enable -s

The comparison pins the engine's performance claims on the gcc trace at
the default REPRO_SCALE: every registered family is timed on both engines
(best of N wall time), must produce identical ``AccuracyResult``s, and the
ratios are printed as a table.  gshare — a single-table scan — must run
>= 10x faster batched; each family batched through a plain-int replay,
row rounds or a composite of component kernels must run >= 3x faster.

A second table splits the batch side by grouping primitive: for one
batch measurement per family (best of 3), the events each of
``CounterScan``, ``segment_positions`` and the engine's ``_PlainCells``
handled and its ns per event, so that a kernel change can be compared
primitive by primitive.

A third table times the cycle simulator on the same benchmark at the
default IPC trace length: the Figure 7 families in both modes, the
per-block reference loop (``tests/uarch_reference.py``) against
``CycleSimulator``, which must give identical ``SimulationResult``s at
least 3x faster.

The differential suites prove bit-exactness; this file measures speed.
"""

from __future__ import annotations

import time

import pytest

from repro.batch import engine, kernels
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

#: Required batch/scalar speed-up per family; families not listed (the
#: table predictors batched before the rest) are reported only.
REQUIRED_SPEEDUP = {
    "gshare": 10.0,
    "2bcgskew": 3.0,
    "bimode_fast": 3.0,
    "egskew": 3.0,
    "loop": 3.0,
    "multicomponent": 3.0,
    "perceptron": 3.0,
    "tournament": 3.0,
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


def best_of(n, build, trace, engine):
    """Best wall time of ``n`` fresh-predictor runs, and the last result."""
    best = float("inf")
    result = None
    for _ in range(n):
        predictor = build()
        start = time.perf_counter()
        result = measure_accuracy(predictor, trace, engine=engine)
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def family_timings(trace):
    """(scalar seconds, batch seconds, scalar result, batch result) per
    registered family; prints the ratio table once."""
    timings = {}
    for family in registry.family_names():
        def build(family=family):
            return registry.build(family, FAMILY_BUDGET)

        scalar_time, scalar_result = best_of(2, build, trace, "scalar")
        batch_time, batch_result = best_of(5, build, trace, "batch")
        timings[family] = (scalar_time, batch_time, scalar_result, batch_result)
    print(f"\n{'family':16s} {'scalar ms':>10s} {'batch ms':>9s} {'speedup':>8s}")
    for family, (scalar_time, batch_time, _, _) in timings.items():
        print(
            f"{family:16s} {scalar_time * 1e3:10.1f} {batch_time * 1e3:9.1f} "
            f"{scalar_time / batch_time:7.1f}x"
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
    """Head-to-head: best-of-N wall time, identical results required."""
    def build():
        return GsharePredictor(ENTRIES)

    scalar_time, scalar_result = best_of(3, build, trace, "scalar")
    batch_time, batch_result = best_of(5, build, trace, "batch")
    assert scalar_result == batch_result
    speedup = scalar_time / batch_time
    print(
        f"\nscalar {scalar_time * 1e3:.1f}ms  batch {batch_time * 1e3:.1f}ms  "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 10.0


@pytest.mark.parametrize("family", registry.family_names())
def test_family_batch_speedup(family, family_timings):
    """Identical results on both engines, and the required speed-up."""
    scalar_time, batch_time, scalar_result, batch_result = family_timings[family]
    assert scalar_result == batch_result
    assert scalar_time / batch_time >= REQUIRED_SPEEDUP.get(family, 0.0)


# -- grouping primitives -----------------------------------------------------------

#: The batch engine's grouping primitives, with the events one call
#: handles: a scan's writes, a grouping's keys, and the cells ranked over
#: every table of a plain-int replay.
PRIMITIVES = {
    "CounterScan": lambda cells, *rest: len(cells),
    "segment_positions": len,
    "_PlainCells": lambda tables, cells: sum(len(c) for c in cells),
}


def capture_primitives(monkeypatch, calls: list) -> None:
    """Route every grouping-primitive call the batch engine makes through a
    wrapper that appends ``(primitive, events, seconds)`` to ``calls``."""

    def timed(name, call):
        def wrapper(*args):
            start = time.perf_counter()
            result = call(*args)
            calls.append((name, PRIMITIVES[name](*args), time.perf_counter() - start))
            return result

        return wrapper

    segment = timed("segment_positions", kernels.segment_positions)
    monkeypatch.setattr(engine, "CounterScan", timed("CounterScan", kernels.CounterScan))
    monkeypatch.setattr(engine, "segment_positions", segment)
    monkeypatch.setattr(kernels, "segment_positions", segment)  # local_histories
    monkeypatch.setattr(engine, "_PlainCells", timed("_PlainCells", engine._PlainCells))


def test_primitive_costs(trace, family_timings, monkeypatch):
    """Per family, the events each grouping primitive handled in one batch
    measurement and its ns per event (fastest of 3 runs); the wrapped run
    must give the unwrapped result."""
    calls: list = []
    capture_primitives(monkeypatch, calls)
    rows = {}
    for family in registry.family_names():
        best = {name: (0, float("inf")) for name in PRIMITIVES}
        for _ in range(3):
            calls.clear()
            result = measure_accuracy(registry.build(family, FAMILY_BUDGET), trace, engine="batch")
            assert result == family_timings[family][3]
            for name in PRIMITIVES:
                events = sum(e for n, e, _ in calls if n == name)
                seconds = sum(t for n, _, t in calls if n == name)
                best[name] = (events, min(best[name][1], seconds))
        rows[family] = best
    header = "".join(f"{name:>26s}" for name in PRIMITIVES)
    print(f"\n{'family':16s}{header}")
    print(f"{'':16s}" + f"{'events':>16s}{'ns/event':>10s}" * len(PRIMITIVES))
    for family, best in rows.items():
        cells = "".join(
            f"{events:16,d}{seconds * 1e9 / events:10.1f}" if events else f"{0:16d}{'-':>10s}"
            for events, seconds in best.values()
        )
        print(f"{family:16s}{cells}")


# -- cycle simulator -------------------------------------------------------------

#: The Figure 7 families and modes the IPC table covers.
IPC_FAMILIES = ("gshare_fast", "2bcgskew", "perceptron", "multicomponent")
IPC_MODES = ("ideal", "overriding")


@pytest.fixture(scope="module")
def ipc_timings():
    """(reference seconds, simulator seconds, reference result, simulator
    result) per (family, mode) on gcc; prints the ratio table once."""
    trace = spec2000_trace("gcc", instructions=ipc_instructions())
    ilp = get_profile("gcc").ilp

    def timed(simulator_type, family, mode):
        simulator = simulator_type(make_policy(family, FAMILY_BUDGET, mode), ilp=ilp)
        start = time.perf_counter()
        result = simulator.run(trace)
        return time.perf_counter() - start, result

    timings = {}
    for family in IPC_FAMILIES:
        for mode in IPC_MODES:
            reference_time, reference_result = timed(ReferenceSimulator, family, mode)
            runs = [timed(CycleSimulator, family, mode) for _ in range(3)]
            simulator_time = min(seconds for seconds, _ in runs)
            timings[family, mode] = (
                reference_time, simulator_time, reference_result, runs[-1][1]
            )
    print(
        f"\n{'family':16s} {'mode':11s} {'reference ms':>12s} "
        f"{'simulator ms':>12s} {'speedup':>8s}"
    )
    for (family, mode), (reference_time, simulator_time, _, _) in timings.items():
        print(
            f"{family:16s} {mode:11s} {reference_time * 1e3:12.1f} "
            f"{simulator_time * 1e3:12.1f} {reference_time / simulator_time:7.1f}x"
        )
    return timings


@pytest.mark.parametrize("mode", IPC_MODES)
@pytest.mark.parametrize("family", IPC_FAMILIES)
def test_simulator_speedup(family, mode, ipc_timings):
    """Identical results to the per-block loop, at least 3x faster."""
    reference_time, simulator_time, reference_result, result = ipc_timings[family, mode]
    assert result == reference_result
    assert reference_time / simulator_time >= 3.0
