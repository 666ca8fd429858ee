"""Trace generation: ExactStream against numpy's own Generator methods.

Gated behind pytest-benchmark's opt-in flag, like the engine speed smoke::

    PYTHONPATH=src python -m pytest benchmarks/test_generation_speed.py --benchmark-enable -s

Generates the 12 SPEC stand-ins at 100k instructions twice: as the program
does, drawing through :class:`repro.common.rng.ExactStream`, and with the
stream replaced by a pass-through that hands the synthesizer and the
executor numpy's ``Generator`` itself, so every draw is a numpy method
call.  Each stand-in's ``columns_checksum`` must be identical both ways
(the golden checksums pin only 2k and 20k instructions); the per-stand-in
times (best of two) and the speed ratio are printed, not gated.
"""

from __future__ import annotations

import time

import pytest

from repro.workloads import program, synth
from repro.workloads.io import columns_checksum
from repro.workloads.spec2000 import _generate_trace, get_profile, spec2000_names

INSTRUCTIONS = 100_000
REPEATS = 2


@pytest.fixture(autouse=True)
def require_benchmarks(request):
    if not request.config.getoption("--benchmark-enable"):
        pytest.skip("generation speed smoke runs only with --benchmark-enable")


def numpy_draws(generator):
    """The pass-through: draw straight from numpy's Generator."""
    return generator


def generate_all() -> dict[str, tuple[float, str]]:
    """{stand-in: (best generation seconds, columns checksum)}."""
    out = {}
    for name in spec2000_names():
        profile = get_profile(name)
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            trace = _generate_trace(profile, INSTRUCTIONS, 1)
            best = min(best, time.perf_counter() - start)
        out[name] = (best, columns_checksum(trace.name, trace.columns()))
    return out


def test_stream_matches_numpy_draws(monkeypatch):
    stream = generate_all()
    with monkeypatch.context() as patch:
        patch.setattr(synth, "ExactStream", numpy_draws)
        patch.setattr(program, "ExactStream", numpy_draws)
        numpy = generate_all()

    print()
    print(f"{'stand-in':10s} {'numpy ms':>9s} {'stream ms':>9s} {'ratio':>6s}")
    for name in spec2000_names():
        print(
            f"{name:10s} {numpy[name][0] * 1e3:9.1f} {stream[name][0] * 1e3:9.1f} "
            f"{stream[name][0] / numpy[name][0]:6.2f}"
        )
    numpy_total = sum(seconds for seconds, _ in numpy.values())
    stream_total = sum(seconds for seconds, _ in stream.values())
    print(
        f"{'total':10s} {numpy_total * 1e3:9.1f} {stream_total * 1e3:9.1f} "
        f"{stream_total / numpy_total:6.2f}"
    )
    mismatched = [name for name in stream if stream[name][1] != numpy[name][1]]
    assert not mismatched, f"traces differ from numpy's draws: {mismatched}"
