"""``repro-figures`` — regenerate any of the paper's tables/figures.

Usage::

    repro-figures table2
    repro-figures figure1 figure5
    repro-figures all                        # everything (slow at large REPRO_SCALE)
    repro-figures all --output-dir results/  # write .txt + manifest sidecars
    repro-figures table2 --profile           # metrics tables + manifest
    repro-figures --list-families            # the registered predictor zoo

Scale with ``REPRO_SCALE`` (trace length multiplier) and
``REPRO_BENCHMARKS`` (subset of benchmark names); pick the predictor
evaluation engine with ``--engine`` (or ``REPRO_ENGINE``).  It covers
accuracy sweeps and the direction streams the cycle simulator takes for
IPC figures alike; both engines give byte-identical output.

Parallel execution: ``--jobs N`` (or ``REPRO_JOBS``; ``auto`` = one worker
per CPU) drains every sweep with N local campaign workers, with results
identical to the serial path.  ``--run-dir DIR`` plans every sweep into
the campaign in DIR — one checkpoint per finished cell, scannable with
``repro-campaign scan DIR`` — so an interrupted run restarted with
``--resume DIR`` skips completed work; ``--max-retries`` bounds per-cell
retry attempts (a cell past its budget leaves a failure marker that
``repro-campaign rerun --status failed`` replans).

Trace store: ``--trace-store DIR`` (or ``REPRO_TRACE_STORE``) persists
generated traces in a content-addressed on-disk store; later runs load
columnar arrays instead of re-executing workload generation, with
byte-identical figure output.  ``repro-figures --warm-traces`` (standalone
or before targets) prewarms the store for the current
``REPRO_SCALE``/``REPRO_BENCHMARKS`` grid.

Result store: ``--result-store DIR`` (or ``REPRO_RESULT_STORE``) memoizes
every sweep *cell* under a content key one layer above the trace store, so
a warm figure regeneration executes zero predictor work.  Without one, a
run uses a private temporary store, deleted when it ends, so each cell is
computed once per run however many targets share it.  ``--config
PATH`` (repeatable; file or directory) runs declarative targets from
``configs/*.json`` — including inferred tables assembled purely from other
configs' stored results — and ``--dry-run`` reports hit/miss/inferred per
target without executing anything (see DESIGN.md §12).

Observability: ``--profile`` turns on the metrics registry, per-branch
misprediction attribution and ``span.*`` phase timers, prints the registry
after each target, and writes a run-manifest sidecar
(``<target>.manifest.json`` — see DESIGN.md §8) that ``repro-stats`` can
render and diff.  ``--verbose`` mirrors span open/close lines on stderr so
long sweeps show progress; ``REPRO_LOG=<path>`` appends structured JSONL
run events — spans with distributed-trace context, store operations,
retries, checkpoints — that the ``repro-stats timeline | flame |
critical-path | stores | regress`` subcommands aggregate (see DESIGN.md
§13).  Without any of these flags the output is byte-identical to the
uninstrumented tool.

Settings (:mod:`repro.common.settings`): an undeclared ``REPRO_*`` name,
or a malformed value in the environment or in a flag that sets one,
stops the run with exit status 2 before any work.  Such flags apply for
the run only: :func:`main` restores the environment when it returns.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from collections.abc import Iterator
from contextlib import contextmanager
from functools import partial

from repro import obs
from repro.common import settings
from repro.common.errors import ConfigurationError
from repro.common.settings import ENGINES
from repro.harness import figures
from repro.harness.scale import resolved_config
from repro.obs.manifest import build_manifest, write_manifest


#: Every ``repro-figures`` target: the two tables, then every
#: :data:`~repro.harness.figures.FIGURES` entry (figures, studies,
#: ablations) — one per committed ``results/*.txt``.
RUNNERS = {
    "table1": figures.table1,
    "table2": figures.table2,
    **{name: partial(figures.render_figure, name) for name in figures.FIGURES},
}


def _run_target(
    target: str,
    output_dir: str | None,
    profile: bool,
    render=None,
    private: bool = False,
) -> None:
    """Regenerate one target; write sidecars / print stats as requested.

    ``render`` overrides the built-in RUNNERS lookup — the ``--config``
    path passes a closure over the parsed config here, so config targets
    get the same output files, manifests and profiling as legacy ones.
    ``private`` marks the result store as the run's private one, which a
    manifest records as no store.
    """
    if render is None:
        render = RUNNERS[target]
    if profile:
        # Per-target metrics: each manifest describes exactly one run.
        obs.reset()
    started = time.perf_counter()
    with obs.span(target):
        text = render()
    duration = time.perf_counter() - started
    print(text)
    print()
    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
        with open(os.path.join(output_dir, f"{target}.txt"), "w", encoding="utf-8") as f:
            f.write(text + "\n")
    if output_dir is not None or profile:
        config = resolved_config()
        if private:
            config["result_store"] = None
        manifest = build_manifest(target, text, duration, config=config)
        write_manifest(
            manifest, os.path.join(output_dir or ".", f"{target}.manifest.json")
        )
    if profile:
        print(obs.registry().render())
        print()


def _render_families() -> str:
    """The registry as a text table (``--list-families``)."""
    from repro.harness.report import render_table
    from repro.predictors import registry

    rows = []
    for spec in registry.specs():
        rows.append(
            (
                spec.name,
                spec.config_type.__name__,
                spec.batch_kernel or "-",
                "yes" if spec.single_cycle else "no",
                "yes" if spec.override_eligible else "no",
                spec.module,
            )
        )
    return render_table(
        "Registered predictor families",
        ["family", "config", "batch kernel", "single-cycle", "override", "module"],
        rows,
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point: regenerate the requested figures/tables."""
    parser = argparse.ArgumentParser(
        prog="repro-figures",
        description="Regenerate tables/figures from 'Reconsidering Complex Branch Predictors'",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        metavar="target",
        # Not argparse `choices`: with nargs="*" those reject an empty
        # list, breaking a bare `--list-families` invocation.  Unknown
        # targets are checked below with the same exit semantics.
        help=f"which figures/tables to regenerate: {', '.join([*RUNNERS, 'all'])}",
    )
    parser.add_argument(
        "--list-families",
        action="store_true",
        help="list every registered predictor family with its capability "
        "flags (from the declarative registry) and exit",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="predictor evaluation engine for accuracy sweeps and the cycle "
        "simulator's direction streams (default: REPRO_ENGINE or 'auto'; "
        "'batch' uses the vectorized engine, 'scalar' the reference loop)",
    )
    parser.add_argument(
        "--jobs",
        default=None,
        metavar="N",
        help="worker processes per sweep (or REPRO_JOBS; 'auto'/'0' = one "
        "per CPU; default 1 = serial). Figure output is byte-identical "
        "either way",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="plan every sweep into the campaign in DIR, checkpointing "
        "each finished cell, so an interrupted run can be resumed (see "
        "--resume) and scanned with repro-campaign scan DIR",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume a run from DIR's cell checkpoints, skipping completed "
        "cells (DIR must exist; implies --run-dir DIR)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retry a failed sweep cell up to N times before marking it "
        "failed (or REPRO_MAX_RETRIES; default 2)",
    )
    parser.add_argument(
        "--trace-store",
        default=None,
        metavar="DIR",
        help="content-addressed on-disk trace store (or REPRO_TRACE_STORE): "
        "traces are generated once, persisted under DIR, and loaded as "
        "columnar arrays on every later run — figure output is "
        "byte-identical cold or warm",
    )
    parser.add_argument(
        "--warm-traces",
        action="store_true",
        help="prewarm the trace store for the current scale/benchmark grid "
        "before running targets (or standalone, with no targets); "
        "requires --trace-store or REPRO_TRACE_STORE",
    )
    parser.add_argument(
        "--result-store",
        default=None,
        metavar="DIR",
        help="content-addressed on-disk sweep-result store (or "
        "REPRO_RESULT_STORE): every (benchmark, family, budget[, mode]) "
        "cell is memoized under a content key, so warm figure "
        "regeneration executes zero predictor work with byte-identical "
        "output",
    )
    parser.add_argument(
        "--config",
        action="append",
        default=None,
        metavar="PATH",
        dest="configs",
        help="declarative target config (JSON file, or a directory of "
        "them; repeatable): runner-mode configs wrap built-in targets, "
        "sweep-mode configs declare arbitrary registered-family grids, "
        "inferred-mode configs assemble tables purely from other "
        "configs' stored results (see configs/ and DESIGN.md §12)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="with --config: classify every declared sweep cell against "
        "the result store (hit/miss/inferred per target) and exit "
        "without executing anything",
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        metavar="DIR",
        help="write each target's rendered text to DIR/<target>.txt plus a "
        "DIR/<target>.manifest.json sidecar (instead of shell redirection)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="enable observability: collect metrics + per-branch attribution, "
        "print the registry after each target, and write a manifest sidecar "
        "(to --output-dir, or the current directory)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="mirror span open/close progress lines on stderr",
    )
    args = parser.parse_args(argv)
    for target in args.targets:
        if target not in RUNNERS and target != "all":
            parser.error(
                f"unknown target {target!r} (choose from "
                f"{', '.join([*RUNNERS, 'all'])})"
            )
    if args.resume is not None:
        if not os.path.isdir(args.resume):
            parser.error(f"--resume directory does not exist: {args.resume}")
        if args.run_dir is not None and args.run_dir != args.resume:
            parser.error("--resume and --run-dir name different directories")
        args.run_dir = args.resume
    # Runners take no arguments: the flags that are settings apply through
    # the table for this run, and are restored when main() returns.
    flags = {
        "REPRO_ENGINE": args.engine,
        "REPRO_JOBS": args.jobs,
        "REPRO_RUN_DIR": args.run_dir,
        "REPRO_MAX_RETRIES": args.max_retries,
        "REPRO_TRACE_STORE": args.trace_store,
        "REPRO_RESULT_STORE": args.result_store,
    }
    flags = {name: value for name, value in flags.items() if value is not None}
    settings.check_at_start(parser.prog, flags)
    with settings.applied(flags):
        return _run(parser, args)


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """:func:`main` once its flags are applied."""
    if args.list_families:
        print(_render_families())
        return 0
    if args.warm_traces:
        from repro.workloads.spec2000 import warm_trace_store

        report = warm_trace_store()
        print(
            f"trace store {report['store']}: {len(report['entries'])} entries "
            f"({report['generated']} generated, "
            f"{report['already_present']} already present)"
        )
        if not args.targets and not args.configs:
            return 0
    configs = []
    if args.configs:
        from repro.harness.figconfig import load_configs

        try:
            configs = load_configs(args.configs)
        except ConfigurationError as exc:
            parser.error(str(exc))
    if args.dry_run:
        if not configs:
            parser.error("--dry-run requires --config")
        from repro.harness.figconfig import classify
        from repro.harness.report import render_classification
        from repro.harness.resultstore import active_result_store

        store = active_result_store()
        run_dir = settings.get("REPRO_RUN_DIR")
        print(
            render_classification(
                "Config targets: result-store classification (dry run)",
                [classify(config, store, run_dir=run_dir) for config in configs],
            )
        )
        return 0
    if not args.targets and not configs:
        parser.error(
            "no targets given (or use --config / --list-families / --warm-traces)"
        )
    targets = list(RUNNERS) if "all" in args.targets else args.targets
    # Own the REPRO_LOG file before any sweep forks workers, so worker
    # processes route their events to per-PID sidecars (no interleaving).
    obs.claim_log_ownership()
    prior_enabled = obs.enabled_override()
    try:
        if args.profile:
            obs.set_enabled(True)
        if args.verbose:
            obs.set_verbose(True)
        with _private_result_store() as private:
            for target in targets:
                _run_target(target, args.output_dir, args.profile, private=private)
            for config in configs:
                from repro.harness.figconfig import run_target as run_config_target

                _run_target(
                    config.name,
                    args.output_dir,
                    args.profile,
                    render=lambda config=config: run_config_target(config, RUNNERS),
                    private=private,
                )
    finally:
        if args.profile:
            obs.set_enabled(prior_enabled)
        if args.verbose:
            obs.set_verbose(None)
    return 0


@contextmanager
def _private_result_store() -> Iterator[bool]:
    """Without a result store, run the block against a private temporary
    one, deleted afterwards, so a run computes each result key once: cells
    two targets (or two panels) share are not simulated twice.  Forked
    ``--jobs`` workers inherit it.  Yields whether the store is private."""
    if settings.get("REPRO_RESULT_STORE") is not None:
        yield False
        return
    path = tempfile.mkdtemp(prefix="repro-results-")
    try:
        with settings.applied({"REPRO_RESULT_STORE": path}):
            yield True
    finally:
        shutil.rmtree(path, ignore_errors=True)


# -- repro-campaign ------------------------------------------------------------


def _campaign_grid(args, parser) -> tuple[list, dict]:
    """(shards, cfg_by_kind) from the ``run`` subcommand's grid flags."""
    from repro.harness.campaign import shard_grid
    from repro.harness.scale import benchmark_names
    from repro.harness.sweep import grid_cfg

    if not args.families or not args.budgets:
        parser.error(
            "creating a campaign requires --families and --budgets "
            "(omit both to join the campaign already pinned in RUN_DIR)"
        )
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    try:
        budgets = [int(b) for b in args.budgets.split(",") if b.strip()]
    except ValueError:
        parser.error("--budgets must be a comma-separated list of integers")
    benchmarks = (
        [b.strip() for b in args.benchmarks.split(",") if b.strip()]
        if args.benchmarks
        else benchmark_names()
    )
    modes = [m.strip() for m in (args.mode or "ideal").split(",") if m.strip()]
    if args.kind == "ipc":
        from repro.harness.sweep import POLICY_MODES

        unknown = [mode for mode in modes if mode not in POLICY_MODES]
        if unknown:
            parser.error(
                f"unknown --mode {', '.join(unknown)}; "
                f"valid modes are {', '.join(POLICY_MODES)}"
            )
    shards = shard_grid(
        args.kind, families, budgets, benchmarks,
        modes=tuple(modes) if args.kind == "ipc" else ("",),
    )
    return shards, {args.kind: grid_cfg(args.kind)}


def _campaign_report(run_dir: str, cells, label: str) -> dict:
    """One scan as a JSON-able report (also the table renderer's input)."""
    from repro.harness.campaign import class_counts

    counts = class_counts(cells)
    return {
        "target": label or os.path.basename(run_dir.rstrip("/")) or run_dir,
        "mode": "campaign",
        "cells": len(cells),
        "counts": counts,
        "shards": [
            {"shard": cell.shard.key, "status": cell.status, "action": cell.action}
            for cell in cells
        ],
    }


def _print_campaign_scan(run_dir: str, cells, label: str, as_json: bool) -> dict:
    from repro.harness.report import render_classification

    report = _campaign_report(run_dir, cells, label)
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            render_classification(
                f"Campaign classification: {run_dir}",
                [{k: v for k, v in report.items() if k != "shards"}],
            )
        )
    return report


def campaign_main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-campaign`` (``scan | run | rerun``).

    ``scan`` classifies every cell of the campaign pinned in RUN_DIR into
    completed / results-missing / failed / partial / missing without
    touching anything.  ``run`` creates (or joins) a campaign, plans the
    actionable cells onto the shared work queue, works the queue until it
    drains, and merges — launch it from several processes (or machines
    sharing RUN_DIR) for multi-worker execution.  ``rerun`` re-plans only
    the cells in the given classes (``--status failed,partial``), works
    them, and re-merges.
    """
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Classify, execute, and selectively rerun sweep campaigns "
        "over a shared run directory",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    scan_p = subparsers.add_parser(
        "scan", help="classify every campaign cell (non-mutating)"
    )
    scan_p.add_argument("run_dir", metavar="RUN_DIR")
    scan_p.add_argument("--json", action="store_true", help="emit JSON instead")

    run_p = subparsers.add_parser(
        "run", help="create/join a campaign, work its queue, merge"
    )
    rerun_p = subparsers.add_parser(
        "rerun", help="re-plan and re-execute only the given classes"
    )
    rerun_p.add_argument(
        "--status",
        required=True,
        metavar="CLASSES",
        help="comma-separated classes to rerun (e.g. failed,partial; "
        "'results' regenerates checkpoints from the result store)",
    )
    for sub in (run_p, rerun_p):
        sub.add_argument("run_dir", metavar="RUN_DIR")
        sub.add_argument(
            "--owner",
            default=None,
            help="worker identity recorded in claims (default host:pid)",
        )
        sub.add_argument(
            "--stale-seconds",
            type=float,
            default=None,
            metavar="S",
            help="steal claims older than S seconds "
            "(or REPRO_CAMPAIGN_STALE_SECONDS; default 600 — must exceed "
            "the slowest single cell)",
        )
        sub.add_argument(
            "--poll-seconds",
            type=float,
            default=None,
            metavar="S",
            help="idle poll interval while other workers hold all remaining "
            "claims (or REPRO_CAMPAIGN_POLL_SECONDS; default 0.2)",
        )
        sub.add_argument(
            "--max-retries",
            type=int,
            default=None,
            metavar="N",
            help="requeue a failing cell up to N times before marking it "
            "failed (or REPRO_MAX_RETRIES; default 2)",
        )
        sub.add_argument(
            "--no-merge",
            action="store_true",
            help="skip the final merge (e.g. while other workers still run)",
        )
        sub.add_argument("--json", action="store_true", help="emit JSON instead")
    run_p.add_argument(
        "--kind", choices=("accuracy", "ipc"), default="accuracy",
        help="sweep kind when creating a campaign (default accuracy)",
    )
    run_p.add_argument(
        "--families", default=None, metavar="A,B",
        help="comma-separated predictor families (creates the campaign; "
        "omit to join the one already pinned in RUN_DIR)",
    )
    run_p.add_argument(
        "--budgets", default=None, metavar="N,M",
        help="comma-separated hardware budgets in bytes",
    )
    run_p.add_argument(
        "--benchmarks", default=None, metavar="A,B",
        help="comma-separated benchmarks (default REPRO_BENCHMARKS or all)",
    )
    run_p.add_argument(
        "--mode", default=None, metavar="M[,M]",
        help="ipc policy modes (default 'ideal'; ignored for accuracy)",
    )
    run_p.add_argument(
        "--label", default="campaign", help="campaign label recorded in events"
    )
    run_p.add_argument(
        "--dry-run",
        action="store_true",
        help="classify and report planned actions, then exit without "
        "executing anything",
    )

    args = parser.parse_args(argv)
    settings.check_at_start(parser.prog)
    from repro.common.errors import ReproError
    from repro.harness import campaign

    obs.claim_log_ownership()
    try:
        if args.command == "scan":
            cells = campaign.scan(args.run_dir)
            _print_campaign_scan(args.run_dir, cells, "", args.json)
            return 0

        if args.command == "run":
            if args.families or args.budgets:
                shards, cfg_by_kind = _campaign_grid(args, parser)
                campaign.create_campaign(
                    args.run_dir, shards, cfg_by_kind, label=args.label
                )
            else:
                campaign.load_campaign(args.run_dir)
            cells = campaign.scan(args.run_dir)
            if args.dry_run:
                # Report what plan() *would* do without touching the queue
                # or clearing any failure/partial evidence.
                planned = {"execute": 0, "regenerate": 0, "skip": 0}
                for cell in cells:
                    planned[cell.action] += 1
                _print_campaign_scan(args.run_dir, cells, "", args.json)
                if not args.json:
                    print(
                        f"planned: {planned['execute']} execute, "
                        f"{planned['regenerate']} regenerate, "
                        f"{planned['skip']} skip (dry run: nothing queued or ran)"
                    )
                return 0
            planned = campaign.plan(args.run_dir, cells=cells)
            statuses = None
        else:  # rerun
            statuses = campaign.normalize_statuses(args.status)
            cells = campaign.scan(args.run_dir)
            planned = campaign.plan(args.run_dir, statuses=statuses, cells=cells)

        counters = campaign.run_worker(
            args.run_dir,
            owner=args.owner,
            stale_seconds=args.stale_seconds,
            poll_seconds=args.poll_seconds,
            max_retries=args.max_retries,
        )
        result = {
            "run_dir": args.run_dir,
            "planned": planned,
            "worker": counters,
        }
        if not args.no_merge:
            merged = campaign.merge(args.run_dir)
            result["merged"] = campaign.CampaignLayout(args.run_dir).merged_path
            result["rows"] = len(merged["rows"])
        if args.json:
            print(json.dumps(result, indent=2, sort_keys=True))
        else:
            print(
                f"planned: {planned['execute']} execute, "
                f"{planned['regenerate']} regenerate; "
                f"worker: {counters['cells_executed']} executed, "
                f"{counters['cells_regenerated']} regenerated, "
                f"{counters['steals']} stolen, {counters['requeues']} requeued"
            )
            if "merged" in result:
                print(f"merged {result['rows']} rows -> {result['merged']}")
        return 0
    except ReproError as exc:
        print(f"repro-campaign: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
