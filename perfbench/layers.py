"""Per-layer metrics: their units, the end-to-end metric each should move,
and how the traced run derives them from its spans.

Every traced run reports every metric below.  A layer that the workload
never reaches reads 0: that is the expected "no change" reading, e.g. the
batch layer on ``ipc_grid`` or predictor builds on ``service_warm``.
"""

from __future__ import annotations

from stats import fold_self_times

ACC = "work_per_s on accuracy_grid (predictions/s)"
IPC = "work_per_s on ipc_grid (simulated instr/s)"
GRIDS = f"{ACC}; {IPC}"
SERVICE = "latency_ms on service_warm (request p50)"
SETUP = "setup_s on accuracy_grid, ipc_grid"
EXACT = "none: exact simulated count, checks bit-exactness"
COUNT = "none: work count"

SCALAR_FAMILIES = ("2bcgskew", "egskew", "perceptron", "multicomponent", "tournament", "loop")
BATCH_FAMILIES = ("bimodal", "gshare", "bimode", "gshare_fast")
ROUTES = ("results", "status", "figure", "manifest", "attribution", "resubmit")
STALLS = ("icache", "dcache", "mispredict", "override_bubble", "btb_miss", "ras_miss")

#: (name, unit, what it should move), in report order.
LAYERS: list[tuple[str, str, str]] = [
    ("workloads.generate_s", "s", SETUP),
    ("workloads.trace_load_ms", "ms", GRIDS),
    ("workloads.blocks_ms", "ms", IPC),
    ("workloads.executor_runs", "count", "none: must be 0 in timed phases"),
    *[(f"predictors.eval_ms.{f}", "ms", ACC) for f in SCALAR_FAMILIES],
    ("predictors.ns_per_prediction", "ns", ACC),
    ("predictors.builds", "count", "none: equals executed cells, 0 in the service"),
    *[(f"batch.eval_ms.{f}", "ms", ACC) for f in BATCH_FAMILIES],
    ("batch.ns_per_prediction", "ns", ACC),
    ("batch.time_share", "1", ACC),
    ("core.eval_ms.bimode_fast", "ms", ACC),
    ("core.overriding_share", "1", IPC + " (overriding cells)"),
    ("uarch.run_ms.ideal", "ms", IPC),
    ("uarch.run_ms.overriding", "ms", IPC),
    ("uarch.ns_per_instr", "ns", IPC),
    ("uarch.self_share", "1", IPC),
    ("uarch.caches_share", "1", IPC),
    ("uarch.cycles", "count", EXACT),
    ("uarch.mispredictions", "count", EXACT),
    ("uarch.overrides", "count", EXACT),
    *[(f"uarch.stall.{s}", "count", EXACT) for s in STALLS],
    ("harness.compute_share", "1", GRIDS),
    ("harness.sweep_self_share", "1", GRIDS),
    ("harness.result_store.save_ms", "ms", GRIDS),
    ("harness.result_store.load_ms", "ms", GRIDS),
    ("harness.result_store.hits", "count", COUNT),
    ("harness.result_store.misses", "count", COUNT),
    ("harness.result_store.writes", "count", COUNT),
    ("harness.result_store.evictions", "count", COUNT),
    ("common.atomic_write_ms", "ms", GRIDS),
    *[(f"service.route_p50_ms.{r}", "ms", SERVICE) for r in ROUTES],
    *[(f"service.handle_ms.{r}", "ms", SERVICE) for r in ROUTES],
    ("service.request_p99_ms", "ms", "none: as-measured tail of service_warm requests"),
    ("service.response_cache_hits", "count", SERVICE),
    ("obs.trace_overhead", "1", "none: traced / untraced throughput"),
    ("host.probe_ms", "ms", "none: host speed regime of the run"),
]

def _mean_ms(spans: list[dict]) -> float:
    if not spans:
        return 0.0
    return 1000.0 * sum(s["duration"] for s in spans) / len(spans)


def span_metrics(tracer) -> dict[str, float]:
    """The layer metrics the benchmark's own spans give."""
    folded = fold_self_times(tracer.records())
    named = tracer.named
    out: dict[str, float] = {}

    def total(name: str) -> float:
        return folded.get(name, {}).get("total", 0.0)

    def self_time(name: str) -> float:
        return folded.get(name, {}).get("self", 0.0)

    out["workloads.trace_load_ms"] = _mean_ms(named("workloads.trace_load"))
    out["workloads.blocks_ms"] = _mean_ms(named("workloads.blocks"))

    evals = {"predictors": [], "batch": [], "core": []}
    for layer, families in (
        ("predictors", SCALAR_FAMILIES), ("batch", BATCH_FAMILIES), ("core", ("bimode_fast",))
    ):
        for family in families:
            spans = named(f"{layer}.eval.{family}")
            out[f"{layer}.eval_ms.{family}"] = _mean_ms(spans)
            evals[layer].extend(spans)
    for layer in ("predictors", "batch"):
        predictions = sum(s["attrs"].get("predictions", 0) for s in evals[layer])
        seconds = sum(s["duration"] for s in evals[layer])
        out[f"{layer}.ns_per_prediction"] = 1e9 * seconds / predictions if predictions else 0.0
    eval_seconds = {k: sum(s["duration"] for s in v) for k, v in evals.items()}
    all_eval = sum(eval_seconds.values())
    out["batch.time_share"] = eval_seconds["batch"] / all_eval if all_eval else 0.0

    runs = named("uarch.run.ideal") + named("uarch.run.overriding")
    run_seconds = sum(s["duration"] for s in runs)
    instructions = sum(s["attrs"].get("instructions", 0) for s in runs)
    out["uarch.run_ms.ideal"] = _mean_ms(named("uarch.run.ideal"))
    out["uarch.run_ms.overriding"] = _mean_ms(named("uarch.run.overriding"))
    out["uarch.ns_per_instr"] = 1e9 * run_seconds / instructions if instructions else 0.0
    run_self = self_time("uarch.run.ideal") + self_time("uarch.run.overriding")
    out["uarch.self_share"] = run_self / run_seconds if run_seconds else 0.0
    out["uarch.caches_share"] = total("uarch.caches") / run_seconds if run_seconds else 0.0
    overriding_runs = total("uarch.run.overriding")
    out["core.overriding_share"] = (
        total("core.overriding") / overriding_runs if overriding_runs else 0.0
    )

    sweep_total = total("harness.sweep")
    # An op's own work is predictor evaluation (accuracy) or cycle
    # simulation (IPC); the rest is per-cell fixed cost: predictor builds,
    # trace loads, result-store keys and saves.
    out["harness.compute_share"] = (
        (all_eval + run_seconds) / sweep_total if sweep_total else 0.0
    )
    out["harness.sweep_self_share"] = (
        self_time("harness.sweep") / sweep_total if sweep_total else 0.0
    )
    out["harness.result_store.save_ms"] = _mean_ms(named("harness.result_store.save"))
    out["harness.result_store.load_ms"] = _mean_ms(named("harness.result_store.load"))
    out["common.atomic_write_ms"] = _mean_ms(named("common.atomic_write"))
    return out


def finish(run, values: dict[str, float], tracer=None) -> None:
    """Emit every layer metric (0 for layers this workload never reached)
    and append the self-time and per-layer tables to the run's report."""
    records = tracer.records() if tracer is not None else []
    run.spans = records
    if records:
        folded = fold_self_times(records)
        run.report.append(f"{'span':40s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
        for name, entry in sorted(folded.items(), key=lambda kv: -kv[1]["self"]):
            run.report.append(
                f"{name:40s} {entry['count']:9d} {entry['total']:10.4f} {entry['self']:10.4f}"
            )
    run.report.append(f"{'layer metric':44s} {'value':>14s} {'unit':6s} moves")
    for name, unit, moves in LAYERS:
        value = float(values.get(name, 0.0))
        run.metric(name, value, unit)
        run.report.append(f"{name:44s} {value:14.6g} {unit:6s} {moves}")
