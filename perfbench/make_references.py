"""Regenerate ``perfbench/references.json``: the expected output of every
cell any seed can put into a workload.

    python3 perfbench/make_references.py

Accuracy cells come from the scalar engine (the reference every batch
kernel must match bit for bit); IPC cells record the cycle simulator's
exact counts.  Only rerun this when the program's results are meant to
change, and review the diff.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import REFERENCES, ROOT, SRC, accuracy_ref_key, clear_program_env, ipc_ref_key  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(SRC))
    clear_program_env()
    from grids import ACC_BUDGETS, ACC_INSTRUCTIONS, IPC_BUDGETS, IPC_FAMILIES, IPC_INSTRUCTIONS, IPC_MODES

    from repro.harness import sweep
    from repro.predictors import registry
    from repro.workloads.spec2000 import spec2000_names

    benchmarks = spec2000_names()
    accuracy: dict[str, float] = {}
    for cell in sweep.accuracy_sweep(
        registry.family_names(), ACC_BUDGETS, benchmarks,
        instructions=ACC_INSTRUCTIONS, engine="scalar", jobs=1,
    ):
        key = accuracy_ref_key(cell.benchmark, cell.family, cell.budget_bytes, ACC_INSTRUCTIONS)
        accuracy[key] = cell.misprediction_percent

    simulated = []
    original = sweep.CycleSimulator.run

    def recording_run(self, trace):
        result = original(self, trace)
        simulated.append(result)
        return result

    ipc: dict[str, dict] = {}
    sweep.CycleSimulator.run = recording_run
    try:
        with tempfile.TemporaryDirectory(dir=ROOT) as empty:
            # A private empty result store: every cell is simulated here.
            os.environ["REPRO_RESULT_STORE"] = empty
            for benchmark in benchmarks:
                for family in IPC_FAMILIES:
                    for mode in IPC_MODES:
                        for budget in IPC_BUDGETS:
                            simulated.clear()
                            (cell,) = sweep.ipc_sweep(
                                [family], [budget], mode, [benchmark],
                                instructions=IPC_INSTRUCTIONS, jobs=1,
                            )
                            (result,) = simulated
                            ipc[ipc_ref_key(benchmark, family, mode, budget, IPC_INSTRUCTIONS)] = {
                                "ipc": cell.ipc,
                                "misprediction_percent": cell.misprediction_percent,
                                "override_rate": cell.override_rate,
                                "cycles": result.cycles,
                                "mispredictions": result.mispredictions,
                                "overrides": result.overrides,
                                "stalls": dict(vars(result.stalls)),
                            }
            del os.environ["REPRO_RESULT_STORE"]
    finally:
        sweep.CycleSimulator.run = original

    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump({"accuracy": accuracy, "ipc": ipc}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(accuracy)} accuracy and {len(ipc)} IPC references to {REFERENCES}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
