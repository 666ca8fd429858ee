"""``python -m repro.harness.cli_campaign`` — the ``repro-campaign`` entry.

The console script (``pyproject.toml``) points straight at
:func:`repro.harness.cli.campaign_main`; this module exists so uninstalled
checkouts (CI drills, ``scripts/drill.py campaign``) can launch worker
processes with ``python -m`` and nothing but ``PYTHONPATH=src``.
"""

from __future__ import annotations

import sys

from repro.harness.cli import campaign_main

if __name__ == "__main__":
    sys.exit(campaign_main())
