"""Benchmark driver for the branch-predictor reproduction.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload against the program in ``src/`` (read from the
checkout this file sits in), checks every output against the committed
references, prints a human-readable report and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
traced run reports the per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("accuracy_grid", "ipc_grid", "service_warm")

#: What ``work_per_s`` and ``latency_ms`` measure on each workload.
MEANING = {
    "accuracy_grid": ("predictions_per_s", "median figure curve: one family over the stand-ins"),
    "ipc_grid": ("sim_instr_per_s", "median figure curve: one family and mode over the stand-ins"),
    "service_warm": ("requests_per_s (fastest window)", "request_p50_ms (fastest window)"),
}


def _dispatch(run: common.Run) -> None:
    if run.workload == "accuracy_grid":
        from grids import run_grid

        run_grid(run, "accuracy")
    elif run.workload == "ipc_grid":
        from grids import run_grid

        run_grid(run, "ipc")
    else:
        from service import run_service

        run_service(run)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    common.clear_program_env()

    work_root = common.ROOT / ".perfbench-work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = common.Run(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), workdir=workdir,
    )
    facts = common.machine_facts(args.seed)
    try:
        _dispatch(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    if run.spans:
        work_root.mkdir(exist_ok=True)
        spans_path = work_root / f"spans-{run.workload}-seed{run.seed}.json"
        spans_path.write_text(json.dumps(run.spans, default=str))
        run.report.append(f"{len(run.spans)} span records written to {spans_path}")

    if not run.trace:
        run.metric("peak_rss_mb", common.peak_rss_mb(), "MB")
    facts["host_probe_ms"] = common.host_probe()
    print(f"facts: {json.dumps(facts, sort_keys=True)}")
    print(f"workload {run.workload}, seed {run.seed}, {run.seconds:g}s, trace {int(run.trace)}")
    for line in run.report:
        print(f"  {line}")
    print(
        f"  error_rate {run.tally.error_rate:.6f} "
        f"({run.tally.failed} failed of {run.tally.attempted} ops)"
    )
    for reason in run.tally.reasons:
        print(f"  FAILED: {reason}")
    if not run.trace:
        work_name, latency_name = MEANING[run.workload]
        for name, meaning in (
            ("setup_s", "program set-up"), ("peak_rss_mb", "driver + children"),
            ("work_per_s", work_name), ("latency_ms", latency_name),
        ):
            metric = run.metrics.get(name)
            if metric is None:
                continue
            print(f"  {name:16s} {metric['value']:14.6f} {metric['unit']:4s} {meaning}")
    result = {
        "correct": run.tally.failed == 0 and run.tally.attempted > 0,
        "attempted": max(run.tally.attempted, 1),
        "failed": run.tally.failed if run.tally.attempted else 1,
        "metrics": run.metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
