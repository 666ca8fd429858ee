"""Regenerate the golden fixtures under ``tests/golden/``.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen.py

Fixtures:

* ``branch_stream.csv`` — a recorded (pc, taken) conditional-branch stream
  from the gcc stand-in workload at seed 1.  The differential batch tests
  replay it through both engines; pinning the stream in a file keeps those
  tests meaningful even if the workload generator changes.
* ``table2.txt`` — the rendered Table 2 (predictor access latencies).  Pure
  function of the SRAM delay model; any drift is a real behaviour change.
* ``figure1_small.txt`` — a small, fixed-configuration Figure 1 run (two
  benchmarks, two budgets, 30k instructions).  Pins the full accuracy
  pipeline: workload generation, warmup policy, every Figure 1 predictor
  family, aggregation and rendering.
* ``trace_checksums.json`` — the :func:`~repro.workloads.io.columns_checksum`
  of every catalog workload's generated trace at each
  :data:`CHECKSUM_INSTRUCTIONS` length.  It pins every column the caches
  and BTB replay (block boundaries, targets, load/store addresses), not
  only the branch stream, so any generator change that moves a single
  byte of any trace fails ``tests/test_golden.py``.

Regenerating is the *intentional* way to accept a behaviour change: rerun
this script, eyeball the diff, and commit the new fixtures with the change
that caused them.  To keep that diff honest, the script refuses to run
while the working tree has uncommitted changes (fixtures regenerated on
top of unrelated edits are impossible to review); pass ``--force`` to
override.  It also prints the engine and seed each fixture was generated
with, so the commit message can record them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
REPO_ROOT = GOLDEN_DIR.parent.parent

#: Fixed configuration for the small Figure 1 fixture (tests/test_golden.py
#: renders it through :func:`render_figure1_small` too).
FIGURE1_BENCHMARKS = "gcc,eon"
FIGURE1_BUDGETS = [4 * 1024, 32 * 1024]
#: 30,000 accuracy instructions per benchmark.
FIGURE1_SCALE = "0.05"

#: The recorded stream: benchmark, seed, trace length and branch count.
STREAM_BENCHMARK = "gcc"
STREAM_SEED = 1
STREAM_INSTRUCTIONS = 40_000
STREAM_BRANCHES = 2_500

#: Trace lengths and seed pinned by ``trace_checksums.json``.
CHECKSUM_INSTRUCTIONS = (2_000, 20_000)
CHECKSUM_SEED = 1


def dirty_files() -> list[str]:
    """Paths with uncommitted changes (``git status --porcelain``).

    Returns [] when the tree is clean or when git is unavailable (for
    example a source tarball) — the guard only blocks when it *knows*
    the tree is dirty.
    """
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return []
    if proc.returncode != 0:
        return []
    return [line for line in proc.stdout.splitlines() if line.strip()]


def regen_branch_stream() -> None:
    from repro.workloads.spec2000 import spec2000_trace

    trace = spec2000_trace(
        STREAM_BENCHMARK, instructions=STREAM_INSTRUCTIONS, seed=STREAM_SEED
    )
    lines = ["pc,taken"]
    for pc, taken in list(trace.conditional_branches())[:STREAM_BRANCHES]:
        lines.append(f"{pc:#x},{int(taken)}")
    (GOLDEN_DIR / "branch_stream.csv").write_text("\n".join(lines) + "\n")
    print(
        f"branch_stream.csv: {len(lines) - 1} branches "
        f"(benchmark={STREAM_BENCHMARK}, seed={STREAM_SEED})"
    )


def regen_table2() -> None:
    from repro.harness.figures import table2

    (GOLDEN_DIR / "table2.txt").write_text(table2() + "\n")
    print("table2.txt (pure delay model; no engine or seed)")


def render_figure1_small() -> str:
    """Figure 1's definition over FIGURE1_BUDGETS, rendered at the scale and
    on the benchmarks the environment names (FIGURE1_SCALE and
    FIGURE1_BENCHMARKS for the fixture)."""
    from dataclasses import replace

    from repro.harness.figures import FIGURES, render_figure

    (panel,) = FIGURES["figure1"].panels
    small = replace(panel.grids[0], budgets=tuple(FIGURE1_BUDGETS))
    return render_figure(
        "figure1", replace(FIGURES["figure1"], panels=(replace(panel, grids=(small,)),))
    )


def regen_figure1_small() -> None:
    os.environ["REPRO_BENCHMARKS"] = FIGURE1_BENCHMARKS
    os.environ["REPRO_SCALE"] = FIGURE1_SCALE
    from repro.common import settings

    (GOLDEN_DIR / "figure1_small.txt").write_text(render_figure1_small() + "\n")
    print(
        f"figure1_small.txt (engine={settings.get('REPRO_ENGINE')}, "
        f"benchmarks={FIGURE1_BENCHMARKS}, default trace seeds)"
    )


def trace_checksums() -> dict[str, dict[str, str]]:
    """``{workload: {instructions: checksum}}`` for every catalog workload,
    each trace generated afresh (no trace cache, no trace store)."""
    from repro.workloads.catalog import workload_names
    from repro.workloads.io import columns_checksum
    from repro.workloads.spec2000 import _generate_trace, get_profile

    checksums = {}
    for name in workload_names():
        profile = get_profile(name)
        checksums[name] = {}
        for instructions in CHECKSUM_INSTRUCTIONS:
            trace = _generate_trace(profile, instructions, CHECKSUM_SEED)
            checksums[name][str(instructions)] = columns_checksum(
                trace.name, trace.columns()
            )
    return checksums


def regen_trace_checksums() -> None:
    checksums = trace_checksums()
    (GOLDEN_DIR / "trace_checksums.json").write_text(
        json.dumps(checksums, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"trace_checksums.json: {len(checksums)} workloads x "
        f"{len(CHECKSUM_INSTRUCTIONS)} lengths (seed={CHECKSUM_SEED})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force",
        action="store_true",
        help="regenerate even with uncommitted changes in the working tree",
    )
    args = parser.parse_args(argv)
    dirty = dirty_files()
    if dirty and not args.force:
        print(
            "refusing to regenerate golden fixtures: the working tree has "
            "uncommitted changes, so the fixture diff would mix with them.\n"
            "Commit or stash first, or rerun with --force:\n  "
            + "\n  ".join(dirty),
            file=sys.stderr,
        )
        return 1
    regen_branch_stream()
    regen_table2()
    regen_figure1_small()
    regen_trace_checksums()
    return 0


if __name__ == "__main__":
    sys.exit(main())
