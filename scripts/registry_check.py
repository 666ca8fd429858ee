#!/usr/bin/env python
"""CI gate: the predictor-family registry must be complete.

Runs :func:`repro.predictors.registry.completeness_problems` and fails
(exit 1) if any concrete predictor dodges registration or any grid in
``repro.harness.figures.FIGURES`` references an unregistered family.  Prints the registered zoo
on success so CI logs show what the gate covered.

Usage::

    python scripts/registry_check.py
"""

from __future__ import annotations

import sys


def main() -> int:
    from repro.predictors import registry

    problems = registry.completeness_problems()
    if problems:
        print("registry completeness check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    names = registry.family_names()
    print(f"registry complete: {len(names)} families registered")
    for spec in registry.specs():
        kernel = spec.batch_kernel or "-"
        print(f"  {spec.name:<16} {spec.module:<28} batch_kernel={kernel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
