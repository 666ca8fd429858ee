"""Plumbing shared by the workloads: the run context, set-up timing, the
host probe, machine facts and the committed reference values."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from stats import Tally

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"

#: The module the grid workloads call into: importing it is their share of
#: the program's set-up.
PROGRAM_IMPORTS = "repro.harness.sweep"

#: The three difficulty classes of the SPEC stand-ins (see
#: ``repro.workloads.spec2000``); a grid draws one stand-in from each so
#: that every seed sees the same mix of easy, medium and hard branches.
STAND_IN_CLASSES = (
    ("eon", "vortex", "gap", "perlbmk"),
    ("gcc", "gzip", "parser", "crafty", "bzip2"),
    ("mcf", "vpr", "twolf"),
)


@dataclass
class Run:
    """One benchmark invocation: its arguments, scratch space and tallies."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    tally: Tally = field(default_factory=Tally)
    metrics: dict = field(default_factory=dict)
    #: Human-readable lines printed before the JSON result.
    report: list = field(default_factory=list)
    #: The traced run's spans, written out when the run ends.
    spans: list = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def scratch(self, name: str) -> Path:
        path = self.workdir / name
        if path.exists():
            shutil.rmtree(path)
        return path


def program_env(**extra: str) -> dict:
    """The environment for program subprocesses: no inherited ``REPRO_*``
    knobs, the checkout's ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def clear_program_env() -> None:
    """Drop inherited ``REPRO_*`` knobs so only the workload's settings apply."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def import_seconds() -> float:
    """The program's import time in a fresh interpreter, timing only the
    import statement itself."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {PROGRAM_IMPORTS}; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=program_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def host_probe_ms(iterations: int = 200_000) -> float:
    """A fixed pure-Python loop; its time shows the host's speed regime."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i
    return (time.perf_counter() - start) * 1000.0


def host_probe(repeats: int = 3) -> float:
    return min(host_probe_ms() for _ in range(repeats))


class CpuSteering:
    """Keep this process (and other processes' threads) on whichever vCPU
    currently runs the host probe fastest.

    The sandbox's vCPUs fall into slow regimes independently, for seconds
    at a time; a single-threaded workload re-pinned between repetitions
    spends more of its run on the fast one.  Steering only chooses where
    the program runs, never what it runs.
    """

    def __init__(self, interval_s: float = 1.0) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.interval_s = interval_s
        self.pids: list[int] = []
        self._last = -float("inf")

    def release(self) -> None:
        """Let this process (and children it starts later) use every vCPU."""
        os.sched_setaffinity(0, set(self.cpus))
        self._last = -float("inf")

    def maybe_steer(self) -> None:
        """Re-pin if ``interval_s`` passed since the last choice."""
        if len(self.cpus) < 2 or time.perf_counter() - self._last < self.interval_s:
            return
        best = None
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            probe = min(host_probe_ms(50_000) for _ in range(2))
            if best is None or probe < best[0]:
                best = (probe, cpu)
        os.sched_setaffinity(0, {best[1]})
        for pid in self.pids:
            for tid in os.listdir(f"/proc/{pid}/task"):
                try:
                    os.sched_setaffinity(int(tid), {best[1]})
                except OSError:
                    pass  # thread exited meanwhile
        self._last = time.perf_counter()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def source_revision() -> str:
    """The git sha of the checkout, else a digest of its ``src`` tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def machine_facts(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "revision": source_revision(),
        "seed": seed,
    }


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def accuracy_ref_key(benchmark: str, family: str, budget: int, instructions: int) -> str:
    return f"{benchmark}|{family}|{budget}|{instructions}"


def ipc_ref_key(benchmark: str, family: str, mode: str, budget: int, instructions: int) -> str:
    return f"{benchmark}|{family}|{mode}|{budget}|{instructions}"

