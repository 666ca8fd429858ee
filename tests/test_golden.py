"""Golden-file regression tests.

Pins rendered experiment output against fixtures under ``tests/golden/``.
Any intentional behaviour change (timing model, workload generator, warmup
policy, predictor logic, rendering) must come with regenerated fixtures::

    PYTHONPATH=src python tests/golden/regen.py

and a diff of the fixture files reviewed alongside the code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness import figures
from repro.harness.cli import main
from tests.golden.regen import (
    FIGURE1_BENCHMARKS,
    FIGURE1_SCALE,
    STREAM_BENCHMARK,
    STREAM_INSTRUCTIONS,
    STREAM_SEED,
    render_figure1_small,
    trace_checksums,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def read_fixture(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


def test_table2_matches_golden():
    assert figures.table2() + "\n" == read_fixture("table2.txt")


def test_table2_cli_matches_golden(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert read_fixture("table2.txt") in out


def test_figure1_small_matches_golden(monkeypatch):
    monkeypatch.setenv("REPRO_BENCHMARKS", FIGURE1_BENCHMARKS)
    monkeypatch.setenv("REPRO_SCALE", FIGURE1_SCALE)
    assert render_figure1_small() + "\n" == read_fixture("figure1_small.txt")


def test_golden_branch_stream_matches_workload():
    """The recorded stream is reproducible from the generator at its pinned
    seed — i.e. the workload layer hasn't drifted under the fixture."""
    from repro.workloads.spec2000 import spec2000_trace

    trace = spec2000_trace(
        STREAM_BENCHMARK, instructions=STREAM_INSTRUCTIONS, seed=STREAM_SEED
    )
    lines = read_fixture("branch_stream.csv").splitlines()[1:]
    recorded = [
        (int(pc, 16), taken == "1")
        for pc, taken in (line.split(",") for line in lines)
    ]
    live = list(trace.conditional_branches())[: len(recorded)]
    assert live == recorded


def test_trace_checksums_match_golden():
    """Every catalog workload's trace, regenerated at each pinned length,
    has the pinned checksum over all of its columns — block boundaries,
    targets and load/store addresses as well as the branch stream."""
    pinned = json.loads(read_fixture("trace_checksums.json"))
    live = trace_checksums()
    drifted = sorted(
        name for name in pinned.keys() | live.keys() if pinned.get(name) != live.get(name)
    )
    assert drifted == []


def test_regen_refuses_dirty_tree(monkeypatch, capsys):
    """regen.py must not rewrite fixtures on top of uncommitted changes."""
    from tests.golden import regen

    calls = []
    names = (
        "regen_branch_stream",
        "regen_table2",
        "regen_figure1_small",
        "regen_trace_checksums",
    )
    for name in names:
        monkeypatch.setattr(regen, name, lambda name=name: calls.append(name))
    monkeypatch.setattr(regen, "dirty_files", lambda: [" M src/thing.py"])
    assert regen.main([]) == 1
    assert calls == []
    assert "uncommitted changes" in capsys.readouterr().err

    # --force overrides the guard; a clean tree never needed it.
    assert regen.main(["--force"]) == 0
    monkeypatch.setattr(regen, "dirty_files", lambda: [])
    assert regen.main([]) == 0
    assert calls == [*names, *names]


def test_regen_prints_engine_and_seed(monkeypatch, capsys, tmp_path):
    """The regen log records what the fixtures were generated with."""
    from tests.golden import regen

    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(regen, "dirty_files", lambda: [])
    # regen_figure1_small writes REPRO_BENCHMARKS and REPRO_SCALE into
    # os.environ; registering them here makes monkeypatch restore them.
    monkeypatch.setenv("REPRO_BENCHMARKS", FIGURE1_BENCHMARKS)
    monkeypatch.setenv("REPRO_SCALE", FIGURE1_SCALE)
    assert regen.main([]) == 0
    out = capsys.readouterr().out
    assert f"seed={STREAM_SEED}" in out
    assert "engine=" in out
    assert (tmp_path / "branch_stream.csv").exists()
    assert (tmp_path / "table2.txt").exists()
    assert (tmp_path / "figure1_small.txt").exists()
    assert (tmp_path / "trace_checksums.json").exists()
