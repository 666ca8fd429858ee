"""End-to-end check of the content-addressed trace store, as CI runs it.

Drives the real ``repro-figures`` CLI over one tiny figure grid:

1. baseline without a store (``--jobs 1``);
2. cold run with ``--trace-store`` — output must be byte-identical to (1)
   while the store fills;
3. ``--warm-traces`` prewarm — reports every entry already present;
4. warm run (``--profile``) — byte-identical again, with obs counters
   proving **zero** ``ProgramExecutor`` invocations and only store hits;
5. header drill: flip one byte of a warm entry's JSON header — the next
   run must count exactly one ``trace_store.corrupt``, regenerate that one
   entry and print byte-identical output;
6. corruption drill: truncate one store entry, flip bytes in another, and
   plant a half-written ``*.tmp.<pid>`` staging file — the next run must
   still exit 0 with byte-identical output, counting ``trace_store.corrupt``
   and regenerating the damaged entries.

Exit status 0 means every stage behaved.  ``--stats-out PATH`` writes a
JSON summary of the store counters per stage (CI uploads it as an
artifact).

Usage::

    PYTHONPATH=src python scripts/trace_store_check.py [--stats-out stats.json]
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Small but not trivial: figure1 over two benchmarks at 5% scale.
CHECK_ENV = {
    "REPRO_SCALE": "0.05",
    "REPRO_BENCHMARKS": "gcc,eon",
}
TARGET = "figure1"

#: Store entries (``repro.workloads.io``: ``SUFFIX``), and where an entry's
#: JSON header starts: after the 8-byte magic and the uint32 header length.
ENTRY_GLOB = "*.trace"
HEADER_START = 12


def run_cli(args: list[str], extra_env: dict[str, str] | None = None):
    """Run ``repro-figures`` with CHECK_ENV; returns CompletedProcess."""
    env = dict(os.environ, **CHECK_ENV)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "-m", "repro.harness.cli", *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


def fail(message: str, proc=None) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    if proc is not None:
        print(f"--- exit {proc.returncode} stderr ---\n{proc.stderr}", file=sys.stderr)
    raise SystemExit(1)


def read_output(directory: Path) -> str:
    return (directory / f"{TARGET}.txt").read_text()


def counters_of(directory: Path) -> dict:
    manifest = json.loads((directory / f"{TARGET}.manifest.json").read_text())
    return manifest["metrics"]["counters"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--stats-out",
        default=None,
        metavar="PATH",
        help="write a JSON summary of per-stage store statistics to PATH",
    )
    args = parser.parse_args(argv)
    stats: dict[str, dict] = {}

    with tempfile.TemporaryDirectory(prefix="trace-store-check-") as tmp:
        tmp_path = Path(tmp)
        store_dir = tmp_path / "store"
        baseline_dir, cold_dir, warm_dir, repaired_dir = (
            tmp_path / "baseline", tmp_path / "cold",
            tmp_path / "warm", tmp_path / "repaired",
        )

        print(f"[1/6] baseline {TARGET} (no store)")
        started = time.perf_counter()
        proc = run_cli([TARGET, "--jobs", "1", "--output-dir", str(baseline_dir)])
        baseline_seconds = time.perf_counter() - started
        if proc.returncode != 0:
            fail("baseline run failed", proc)

        print("[2/6] cold run with --trace-store")
        proc = run_cli(
            [TARGET, "--jobs", "1", "--trace-store", str(store_dir),
             "--output-dir", str(cold_dir)]
        )
        if proc.returncode != 0:
            fail("cold store run failed", proc)
        if read_output(cold_dir) != read_output(baseline_dir):
            fail("cold store output differs from storeless baseline")
        entries = sorted(store_dir.glob(ENTRY_GLOB))
        if len(entries) != 2:  # one per benchmark
            fail(f"expected 2 store entries, found {len(entries)}")

        print("[3/6] --warm-traces prewarm, twice (second pass is a no-op)")
        # The first prewarm may top up grid lengths figure1 does not use
        # (the IPC trace length); the second must find everything present.
        proc = run_cli(["--trace-store", str(store_dir), "--warm-traces"])
        if proc.returncode != 0:
            fail("prewarm failed", proc)
        proc = run_cli(["--trace-store", str(store_dir), "--warm-traces"])
        if proc.returncode != 0:
            fail("second prewarm failed", proc)
        if "0 generated" not in proc.stdout:
            fail(f"second prewarm regenerated entries: {proc.stdout!r}")

        print("[4/6] warm run: byte-identical, zero generation")
        started = time.perf_counter()
        proc = run_cli(
            [TARGET, "--jobs", "1", "--trace-store", str(store_dir),
             "--output-dir", str(warm_dir), "--profile"]
        )
        warm_seconds = time.perf_counter() - started
        if proc.returncode != 0:
            fail("warm store run failed", proc)
        if read_output(warm_dir) != read_output(baseline_dir):
            fail("warm store output differs from baseline")
        counters = counters_of(warm_dir)
        stats["warm"] = {k: v for k, v in counters.items() if "trace_store" in k}
        if counters.get("workloads.executor_runs", 0) != 0:
            fail(
                f"warm run generated traces: workloads.executor_runs="
                f"{counters['workloads.executor_runs']}"
            )
        if counters.get("trace_store.hits", 0) < 2:
            fail(f"warm run did not hit the store: {counters}")
        print(
            f"      byte-identical, zero executor runs "
            f"({baseline_seconds:.1f}s cold, {warm_seconds:.1f}s warm)"
        )

        print("[5/6] header drill: one flipped header byte")
        blob = bytearray(entries[0].read_bytes())
        (length,) = struct.unpack_from("<I", blob, HEADER_START - 4)
        blob[HEADER_START + length // 2] ^= 0xFF
        entries[0].write_bytes(bytes(blob))
        proc = run_cli(
            [TARGET, "--jobs", "1", "--trace-store", str(store_dir),
             "--output-dir", str(repaired_dir), "--profile"]
        )
        if proc.returncode != 0:
            fail("run over a flipped header crashed", proc)
        if read_output(repaired_dir) != read_output(baseline_dir):
            fail("flipped header changed results")
        counters = counters_of(repaired_dir)
        stats["header"] = {k: v for k, v in counters.items() if "trace_store" in k}
        if counters.get("trace_store.corrupt", 0) != 1:
            fail(f"expected 1 corrupt entry counted, got {counters}")
        if counters.get("workloads.executor_runs", 0) != 1:
            fail(f"expected 1 regeneration, got {counters}")
        print("      regenerated the entry, results unchanged")

        print("[6/6] corruption drill: truncate + bit-flip + stale tmp")
        first, second = entries
        data = first.read_bytes()
        first.write_bytes(data[: len(data) // 2])  # truncation
        blob = bytearray(second.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # bit flip
        second.write_bytes(bytes(blob))
        (store_dir / f"{first.name}.tmp.4242").write_bytes(b"\x00" * 64)
        proc = run_cli(
            [TARGET, "--jobs", "1", "--trace-store", str(store_dir),
             "--output-dir", str(repaired_dir), "--profile"]
        )
        if proc.returncode != 0:
            fail("run over corrupted store crashed", proc)
        if read_output(repaired_dir) != read_output(baseline_dir):
            fail("corrupted store changed results")
        counters = counters_of(repaired_dir)
        stats["repaired"] = {k: v for k, v in counters.items() if "trace_store" in k}
        if counters.get("trace_store.corrupt", 0) != 2:
            fail(f"expected 2 corrupt entries counted, got {counters}")
        if counters.get("workloads.executor_runs", 0) != 2:
            fail(f"expected 2 regenerations, got {counters}")
        print(
            f"      regenerated {counters['trace_store.corrupt']} corrupt "
            f"entries, results unchanged"
        )

    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"store statistics written to {args.stats_out}")

    print("OK: cold, warm and corrupted-store outputs are byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
