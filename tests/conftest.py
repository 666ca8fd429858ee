"""Shared fixtures: small deterministic traces and branch streams."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.common.atomic import HOST, STALE_STAGING_SECONDS, atomic_path
from repro.workloads.spec2000 import spec2000_trace


@pytest.fixture
def obs_enabled():
    """Turn observability collection on, with a clean default registry, and
    restore the env-driven disabled state afterwards."""
    obs.set_enabled(True)
    obs.reset()
    yield obs.registry()
    obs.set_enabled(None)
    obs.reset()


@pytest.fixture(scope="session")
def small_trace():
    """A small cached gcc trace shared by integration-style tests."""
    return spec2000_trace("gcc", instructions=60_000)


@pytest.fixture(scope="session")
def eon_trace():
    return spec2000_trace("eon", instructions=60_000)


def biased_stream(n: int, bias: float, seed: int = 7, pc: int = 0x40_0000):
    """(pc, taken) pairs from a biased coin — one static branch."""
    rng = random.Random(seed)
    return [(pc, rng.random() < bias) for _ in range(n)]


def alternating_stream(n: int, pc: int = 0x40_0100):
    return [(pc, i % 2 == 0) for i in range(n)]


def loop_stream(reps: int, trips: int, pc: int = 0x40_0200):
    """A fixed-trip loop back edge: taken trips-1 times, then not taken."""
    out = []
    for _ in range(reps):
        for i in range(trips):
            out.append((pc, i < trips - 1))
    return out


def run_stream(predictor, stream):
    """Drive a predictor over (pc, taken) pairs; return mispredict count."""
    wrong = 0
    for pc, taken in stream:
        predictor.predict(pc)
        if not predictor.update(pc, taken):
            wrong += 1
    return wrong


def exited_pid() -> int:
    """The pid of a process of this host that has exited."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def plant_staging_files(path: Path) -> tuple[list[Path], list[Path]]:
    """Half-written staging siblings of ``path``: ``(dead, live)``.

    Dead writers: a process of this host that has exited, and a writer on
    another host (and one named without a host, as older code named
    them) whose files are older than the staleness bound.  Live writer:
    another host's fresh file, which no one here can prove abandoned.
    """
    dead = [
        path.parent / f"{path.name}.tmp.{HOST}.{exited_pid()}.1",
        path.parent / f"{path.name}.tmp.other-host.example.4242.1",
        path.parent / f"{path.name}.tmp.99999",
    ]
    live = [path.parent / f"{path.name}.tmp.other-host.example.4243.1"]
    for staging in dead + live:
        staging.write_bytes(b"\x00" * 64)
    old = time.time() - 2 * STALE_STAGING_SECONDS
    for staging in dead[1:]:
        os.utime(staging, (old, old))
    return dead, live


def race_live_writer(path: Path, content: bytes, second_save) -> None:
    """Writer A stages ``content`` for ``path`` through the atomic helper
    and stalls half-way; ``second_save()`` (writer B, saving the same
    entry) runs meanwhile; then A finishes.  Re-raises A's failure."""
    staged, resumed = threading.Event(), threading.Event()
    errors: list[BaseException] = []

    def writer_a() -> None:
        try:
            with atomic_path(path) as tmp:
                with open(tmp, "wb") as handle:
                    handle.write(content[: len(content) // 2])
                    handle.flush()
                    staged.set()
                    resumed.wait(30)
                    handle.write(content[len(content) // 2 :])
        except BaseException as exc:
            errors.append(exc)
        finally:
            staged.set()

    thread = threading.Thread(target=writer_a)
    thread.start()
    staged.wait(30)
    try:
        second_save()
    finally:
        resumed.set()
        thread.join(30)
    if errors:
        raise errors[0]
