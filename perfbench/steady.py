"""Steadiness report: run each workload N times and show how much every
end-to-end metric moves between runs of the same code.

    python3 perfbench/steady.py --runs 10 --seconds 15 [--workloads a,b] [--first-seed 1]

Run k uses seed ``first-seed + k``.  Per metric the report gives the
median, the quartiles (``statistics.quantiles(n=4)``), the inter-quartile
spread and the largest deviation, both as shares of the median, and each
run's ``host_probe_ms`` so a slow run can be matched to a slow host regime.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from stats import max_deviation, quartiles, spread  # noqa: E402


def one_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    facts = next(json.loads(l[len("facts: "):]) for l in lines if l.startswith("facts: "))
    result["host_probe_ms"] = facts["host_probe_ms"]
    return result


def report(workload: str, runs: list[dict], bounds: dict) -> list[str]:
    lines = [f"== {workload}: {len(runs)} runs, "
             f"{sum(r['failed'] for r in runs)} failed of {sum(r['attempted'] for r in runs)} ops"]
    lines.append(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                 f"{'spread':>7s} {'maxdev':>7s} {'bound/3':>7s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        bound = bounds.get(name)
        lines.append(
            f"  {name:16s} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread(values):7.3f} "
            f"{max_deviation(values):7.3f} {bound / 3 if bound else float('nan'):7.3f}"
        )
        lines.append("    runs: " + " ".join(f"{v:.5g}" for v in values))
    lines.append("  host_probe_ms: " + " ".join(f"{r['host_probe_ms']:.1f}" for r in runs))
    return lines


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default="", help="also write every run's result as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    collected = {}
    for workload in args.workloads.split(","):
        runs = [
            one_run(workload, args.first_seed + k, args.seconds) for k in range(args.runs)
        ]
        collected[workload] = runs
        print("\n".join(report(workload, runs, bounds)), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(collected, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
