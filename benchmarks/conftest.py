"""Shared plumbing for the figure-regeneration benchmarks.

Each benchmark regenerates one of the paper's tables/figures (see
DESIGN.md's experiment index), asserts its headline *shape* property, and
writes the rendered text to ``results/<target>.txt`` next to this
directory: exactly what ``repro-figures <target>`` prints.  Grid figures
build their one definition, :data:`repro.harness.figures.FIGURES`, at the
trace lengths of :mod:`repro.harness.scale` (600k accuracy / 400k IPC
instructions at the default scale) over the full budget ladders.

Scale: ``REPRO_SCALE`` multiplies the trace lengths, and
``REPRO_BENCHMARKS`` selects a benchmark subset; ``REPRO_RESULT_STORE``
makes a rerun read every cell back instead of recomputing it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def write_figure(name: str, panels) -> None:
    """Write built panels as ``repro-figures`` renders them."""
    write_result(name, "\n\n".join(panel.render() for panel in panels))


@pytest.fixture
def once(benchmark):
    """Run the figure generator exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
