"""Spawned campaign worker: ``python -m repro.service.worker RUN_DIR``.

The ``--worker-mode spawn`` executor runs one of these per job instead of
draining on an in-process thread.  The child adopts the submitting
request's span context (``--trace-context``), so its shard spans parent
into the daemon's trace across the process boundary, and it inherits
``REPRO_LOG_OWNER_PID`` so its events land in a per-PID sidecar file
rather than interleaving with the daemon's.

Exit status: 0 when the campaign drained (or the queue was already
empty); non-zero when the worker loop raised — the executor surfaces
that as the job's ``failed``/``partial`` classification.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import obs
from repro.common import settings
from repro.harness import campaign


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.service.worker")
    parser.add_argument("run_dir", help="campaign run directory to drain")
    parser.add_argument(
        "--trace-context",
        default="",
        help="JSON span context from the submitting request",
    )
    args = parser.parse_args(argv)
    settings.check_at_start(parser.prog)
    if args.trace_context:
        try:
            obs.adopt_context(json.loads(args.trace_context))
        except json.JSONDecodeError:
            print("worker: ignoring malformed --trace-context", file=sys.stderr)
    summary = campaign.run_worker(args.run_dir)
    print(json.dumps(summary, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
