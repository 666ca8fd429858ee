"""Section 3.2: the cost of updating the gshare.fast PHT slowly.

Paper measurement: allowing 64 branches between predict and update moves a
256KB budget from 4.03% to 4.07% mispredictions, with under 1% IPC loss.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.harness.figures import delayed_update_study


def test_delayed_update_cost(once):
    result = once(delayed_update_study)
    write_result("delayed-update", result.render())

    base = result.misprediction_percent[0]
    delayed = result.misprediction_percent[64]
    # The 64-branch delay costs only a sliver of accuracy...
    assert abs(delayed - base) < 0.5
    # ...and within 1% of IPC (the paper's claim).
    assert result.ipc[64] >= result.ipc[0] * 0.99
    # Extreme delays cost more than moderate ones.
    assert result.misprediction_percent[256] >= result.misprediction_percent[16] - 0.1
