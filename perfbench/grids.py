"""``accuracy_grid`` and ``ipc_grid``: cold figure grids, one op per call
into ``accuracy_sweep`` / ``ipc_sweep``.

Every repetition of an op redoes identical work — the trace LRU is
cleared and the op gets an empty result store — so an op's time is its
minimum over round-robin passes; the rest is host noise.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass
from statistics import median
from typing import Callable

import layers
from common import (
    CpuSteering,
    STAND_IN_CLASSES,
    accuracy_ref_key,
    host_probe,
    import_seconds,
    ipc_ref_key,
    load_references,
)
from stats import per_op_minimum
from tracer import Tracer, install_layer_probes

#: Trace lengths.  Shorter than the program's defaults (600k accuracy,
#: 400k IPC) so that each op repeats several times a run, but long enough
#: that an op's time splits between predictor evaluation or cycle
#: simulation and per-cell fixed costs about as it does at default scale
#: (README.md, "Trace lengths").
ACC_INSTRUCTIONS = 100_000
ACC_BUDGETS = [8 * 1024, 64 * 1024]

IPC_INSTRUCTIONS = 20_000
IPC_FAMILIES = ["gshare_fast", "2bcgskew", "perceptron", "multicomponent"]
IPC_MODES = ["ideal", "overriding"]
IPC_BUDGETS = [64 * 1024]

#: Untraced runs make at least this many passes; traced runs alternate
#: untraced and traced passes and make at least twice as many.
MIN_PASSES = 3

#: Between passes, set-up is timed again once this long has passed since
#: its last sample.
SETUP_SAMPLE_S = 15.0


def stand_ins(workload: str, seed: int) -> list[str]:
    """One seed-chosen stand-in per difficulty class."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.choice(names) for names in STAND_IN_CLASSES]


@dataclass
class Op:
    key: str
    call: Callable[[], list]
    check: Callable[[list], str | None]
    work: int
    mode: str = ""


class SetupClock:
    """The program's set-up: its import in a fresh interpreter, then
    generating every stand-in's trace into a fresh trace store, as a
    figure run warms its traces.  All stand-ins, not the seed's three:
    generation cost differs twofold between stand-ins, and set-up must
    not depend on the seed.

    Set-up is sampled once before the passes and again between them; each
    step reports its fastest sample.  Samples spread over the run catch
    the host's fast moments as the per-op minimum does, where samples
    taken back to back all land in one speed regime.  The first sample's
    store stays the run's trace store.
    """

    def __init__(
        self, run, benchmarks: list[str], instructions: int, steering: CpuSteering
    ) -> None:
        self.run = run
        self.benchmarks = benchmarks
        self.instructions = instructions
        self.steering = steering
        self.imports: list[float] = []
        self.generations: dict[str, list[float]] = {b: [] for b in benchmarks}
        #: Trace generations made here; the timed ops must make none.
        self.executor_runs = 0
        self.store = None
        self._last = 0.0

    def sample(self) -> None:
        from repro.workloads import spec2000

        self.steering.maybe_steer()
        self.imports.append(import_seconds())
        store = self.run.scratch("traces" if self.store is None else "traces-sample")
        os.environ["REPRO_TRACE_STORE"] = str(store)
        spec2000.clear_trace_cache()
        before = spec2000.executor_run_count()
        for benchmark in self.benchmarks:
            start = time.perf_counter()
            spec2000.spec2000_trace(benchmark, instructions=self.instructions)
            self.generations[benchmark].append(time.perf_counter() - start)
        self.executor_runs += spec2000.executor_run_count() - before
        spec2000.clear_trace_cache()
        if self.store is None:
            self.store = store
        else:
            shutil.rmtree(store)
            os.environ["REPRO_TRACE_STORE"] = str(self.store)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SETUP_SAMPLE_S:
            self.sample()

    def generate_s(self) -> dict[str, float]:
        """Each trace's fastest generation."""
        return {b: min(t) for b, t in self.generations.items()}

    def seconds(self) -> float:
        return min(self.imports) + sum(self.generate_s().values())


def accuracy_ops(benchmarks: list[str], refs: dict) -> list[Op]:
    from repro.harness.sweep import accuracy_sweep
    from repro.predictors import registry
    from repro.workloads import spec2000

    ops = []
    for benchmark in benchmarks:
        branches = spec2000.spec2000_trace(
            benchmark, instructions=ACC_INSTRUCTIONS
        ).conditional_branch_count
        for family in registry.family_names():
            expected = [
                refs[accuracy_ref_key(benchmark, family, b, ACC_INSTRUCTIONS)]
                for b in ACC_BUDGETS
            ]

            def check(cells, expected=expected, key=f"{benchmark}/{family}"):
                got = [c.misprediction_percent for c in cells]
                return None if got == expected else f"{key}: {got} != reference {expected}"

            ops.append(
                Op(
                    key=f"{benchmark}/{family}",
                    call=lambda b=benchmark, f=family: accuracy_sweep(
                        [f], ACC_BUDGETS, [b], instructions=ACC_INSTRUCTIONS
                    ),
                    check=check,
                    work=branches * len(ACC_BUDGETS),
                )
            )
    spec2000.clear_trace_cache()
    return ops


def ipc_ops(benchmarks: list[str], refs: dict) -> list[Op]:
    from repro.harness.sweep import ipc_sweep
    from repro.workloads import spec2000

    ops = []
    for benchmark in benchmarks:
        instructions = spec2000.spec2000_trace(
            benchmark, instructions=IPC_INSTRUCTIONS
        ).instruction_count
        for family in IPC_FAMILIES:
            for mode in IPC_MODES:
                for budget in IPC_BUDGETS:
                    ref = refs[ipc_ref_key(benchmark, family, mode, budget, IPC_INSTRUCTIONS)]
                    expected = (ref["ipc"], ref["misprediction_percent"], ref["override_rate"])

                    def check(cells, expected=expected, key=f"{benchmark}/{family}/{mode}"):
                        got = tuple(
                            x for c in cells
                            for x in (c.ipc, c.misprediction_percent, c.override_rate)
                        )
                        return None if got == expected else f"{key}: {got} != reference {expected}"

                    ops.append(
                        Op(
                            key=f"{benchmark}/{family}/{mode}/{budget}",
                            call=lambda b=benchmark, f=family, m=mode, B=budget: ipc_sweep(
                                [f], [B], m, [b], instructions=IPC_INSTRUCTIONS
                            ),
                            check=check,
                            work=instructions,
                            mode=mode,
                        )
                    )
    spec2000.clear_trace_cache()
    return ops


def _execute(run, op: Op, tracer: Tracer | None) -> float | None:
    """One repetition of ``op``: cold LRU, empty result store.  Returns its
    wall time, or None when it failed."""
    from repro.workloads import spec2000

    spec2000.clear_trace_cache()
    store = run.scratch("results")
    store.mkdir(parents=True)
    os.environ["REPRO_RESULT_STORE"] = str(store)
    try:
        if tracer is None:
            start = time.perf_counter()
            cells = op.call()
            elapsed = time.perf_counter() - start
        else:
            tracer.tags["mode"] = op.mode
            with tracer.span("harness.sweep", op=op.key):
                start = time.perf_counter()
                cells = op.call()
                elapsed = time.perf_counter() - start
    except Exception as exc:  # an op that raises is a failed op, not a crash
        run.tally.record(f"{op.key}: {type(exc).__name__}: {exc}")
        return None
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return elapsed if run.tally.record(op.check(cells)) else None


def _passes(
    run, ops: list[Op], tracer: Tracer | None, steering: CpuSteering, clock: SetupClock
) -> tuple[dict, dict, int]:
    """Round-robin passes until ``run.seconds`` is spent, with set-up
    samples between them.  With a tracer, odd passes are traced; returns
    untraced and traced samples per op."""
    untraced = {op.key: [] for op in ops}
    traced = {op.key: [] for op in ops}
    minimum = MIN_PASSES if tracer is None else 2 * MIN_PASSES
    passes = 0
    start = time.perf_counter()
    while passes < minimum or time.perf_counter() - start < run.seconds:
        clock.maybe_sample()
        active = tracer if (tracer is not None and passes % 2 == 1) else None
        if active is not None:
            install_layer_probes(active)
        try:
            for op in ops:
                steering.maybe_steer()
                elapsed = _execute(run, op, active)
                if elapsed is not None:
                    (traced if active else untraced)[op.key].append(elapsed)
        finally:
            if active is not None:
                active.restore()
        passes += 1
    return untraced, traced, passes


def _grid_time(samples: dict) -> dict:
    return per_op_minimum({k: v for k, v in samples.items() if v})


def run_grid(run, kind: str) -> None:
    from repro.harness import resultstore
    from repro.predictors import registry
    from repro.workloads import spec2000

    probe_start = host_probe()
    steering = CpuSteering()
    benchmarks = stand_ins(run.workload, run.seed)
    instructions = ACC_INSTRUCTIONS if kind == "accuracy" else IPC_INSTRUCTIONS
    clock = SetupClock(run, spec2000.spec2000_names(), instructions, steering)
    clock.sample()
    refs = load_references()[kind]
    ops = (accuracy_ops if kind == "accuracy" else ipc_ops)(benchmarks, refs)
    _execute(run, ops[0], None)  # untimed warm-up op

    tracer = Tracer() if run.trace else None
    generated = spec2000.executor_run_count() - clock.executor_runs
    builds = registry.build_count()
    store_stats = resultstore.result_store_stats()
    untraced, traced, passes = _passes(run, ops, tracer, steering, clock)
    executor_runs = spec2000.executor_run_count() - clock.executor_runs - generated
    if executor_runs:
        run.tally.record(f"{executor_runs} trace generations during timed passes")

    generate = clock.generate_s()
    setup_s = clock.seconds()
    run.report.append(
        f"stand-ins {benchmarks}; {len(ops)} ops; set-up {setup_s:.3f}s "
        f"(imports {min(clock.imports):.3f}s, traces {sum(generate.values()):.3f}s; "
        f"fastest of {len(clock.imports)} samples)"
    )
    minima = _grid_time(untraced)
    total = sum(minima.values())
    work = sum(op.work for op in ops if op.key in minima)
    # One figure curve (a family, or a family in one mode) over all of the
    # grid's stand-ins: summing across stand-ins keeps the median from
    # hinging on which stand-in the seed drew.
    curves: dict[str, float] = {}
    for key, seconds in minima.items():
        curve = key.split("/", 1)[1]
        curves[curve] = curves.get(curve, 0.0) + seconds
    curve_ms = 1000.0 * median(list(curves.values()))
    unit = "predictions" if kind == "accuracy" else "simulated instructions"
    run.report.append(
        f"{passes} passes; grid time {total:.4f}s (sum of per-op minima); "
        f"{work} {unit}; {work / total:.1f} {unit}/s; median curve {curve_ms:.3f}ms"
    )
    if not run.trace:
        run.metric("setup_s", setup_s, "s")
        run.metric("work_per_s", work / total, "1/s")
        run.metric("latency_ms", curve_ms, "ms")
        return

    traced_minima = _grid_time(traced)
    traced_total = sum(traced_minima[k] for k in minima if k in traced_minima)
    values = layers.span_metrics(tracer)
    stats_now = resultstore.result_store_stats()
    values.update(
        {
            "workloads.generate_s": sum(generate.values()) / len(generate),
            "workloads.executor_runs": executor_runs,
            "predictors.builds": (registry.build_count() - builds) / passes,
            "obs.trace_overhead": total / traced_total if traced_total else 0.0,
            "host.probe_ms": (probe_start + host_probe()) / 2,
        }
    )
    for key in ("hits", "misses", "writes", "evictions"):
        values[f"harness.result_store.{key}"] = (stats_now[key] - store_stats[key]) / passes
    if kind == "ipc":
        values.update(_exact_uarch_counts(run, tracer))
    layers.finish(run, values, tracer)


def _exact_uarch_counts(run, tracer: Tracer) -> dict:
    """Simulated counts of one traced pass; every traced simulation is
    checked against the committed references first."""
    refs = load_references()["ipc"]
    per_op: dict[str, dict] = {}
    sweeps = {s["id"]: s for s in tracer.named("harness.sweep")}
    for span in tracer.named("uarch.run.ideal") + tracer.named("uarch.run.overriding"):
        op_key = sweeps[span["parent"]]["attrs"]["op"]
        benchmark, family, mode, budget = op_key.split("/")
        ref = refs[ipc_ref_key(benchmark, family, mode, int(budget), IPC_INSTRUCTIONS)]
        got = {k: span["attrs"][k] for k in ("cycles", "mispredictions", "overrides", "stalls")}
        want = {k: ref[k] for k in got}
        run.tally.record(None if got == want else f"{op_key}: simulated {got} != reference {want}")
        per_op[op_key] = got
    out = {"uarch.cycles": 0, "uarch.mispredictions": 0, "uarch.overrides": 0}
    for got in per_op.values():
        for key in ("cycles", "mispredictions", "overrides"):
            out[f"uarch.{key}"] += got[key]
        for cause, value in got["stalls"].items():
            out[f"uarch.stall.{cause}"] = out.get(f"uarch.stall.{cause}", 0) + value
    return out
