"""Declarative figure/table target configs (``repro-figures --config``).

A config file is a small JSON document that *names* a regeneration target
instead of hard-coding it in the CLI.  Three modes:

``runner``
    Wraps one of the CLI's built-in targets (``figure1`` .. ``extension``)
    and declares the sweep grid(s) that target iterates.  Output is
    byte-identical to the legacy positional-target path — the declared grid
    exists so ``--dry-run`` can classify every cell against the result
    store without running anything.

``sweep``
    A self-contained declarative sweep: families x budgets (accuracy) or
    families x budgets x modes (IPC), rendered as a
    :class:`~repro.harness.figures.SeriesFigure`.  Because families resolve
    through the predictor registry — and ``family_modules`` lists modules
    to import first — an external family (e.g. the test-suite toy family)
    gets a figure with zero harness edits.

``inferred``
    A projection assembled *purely from already-stored results* of other
    configs: it declares ``based_on`` (the config names whose grids cover
    it) and its cell set must be a subset of the union of those base grids
    — the inference graph, validated up front.  Resolution goes through the
    ordinary sweeps, so with the bases warm in the result store an inferred
    target performs zero predictor work; with a cold store it still
    produces correct output (it just computes the cells, warming them for
    the bases in turn).

``--dry-run`` probes the active result store for every declared cell and
reports hit/miss/inferred per target without mutating anything (corrupt
entries are left in place for the real run to count and repair).

Cell keys are derived with the exact recipe the sweeps use
(:mod:`repro.harness.resultstore`), resolving instructions, engine and
benchmarks from the current environment — a classification is a statement
about *this* scale/engine/benchmark configuration, like every figure.
"""

from __future__ import annotations

import importlib
import json
import os
from collections.abc import Iterator, Mapping
from dataclasses import asdict, dataclass, field

from repro.common.errors import ConfigurationError

#: Bumped when the config-file layout changes.
CONFIG_SCHEMA = 1

_MODES = ("runner", "sweep", "inferred")
_GRID_KINDS = ("accuracy", "ipc")


@dataclass(frozen=True)
class GridSpec:
    """One declared sweep grid: the cells a target iterates."""

    kind: str  # "accuracy" | "ipc"
    families: tuple[str, ...]
    budgets: tuple[int, ...]
    #: None = resolve ``benchmark_names()`` (REPRO_BENCHMARKS) at use time.
    benchmarks: tuple[str, ...] | None = None
    #: IPC policy modes ("ideal"/"overriding"); empty for accuracy grids.
    modes: tuple[str, ...] = ()

    def cells(self) -> Iterator[tuple]:
        """Every (benchmark, family, budget[, mode]) cell in the grid."""
        from repro.harness.scale import benchmark_names

        benchmarks = self.benchmarks if self.benchmarks is not None else tuple(
            benchmark_names()
        )
        for benchmark in benchmarks:
            for family in self.families:
                for budget in self.budgets:
                    if self.kind == "ipc":
                        for mode in self.modes:
                            yield (benchmark, family, budget, mode)
                    else:
                        yield (benchmark, family, budget)


@dataclass(frozen=True)
class TargetConfig:
    """One parsed config file (see module docstring for the modes)."""

    name: str
    mode: str
    path: str = ""  # source file, for diagnostics
    runner: str = ""  # runner mode: key into the CLI RUNNERS table
    title: str = ""  # sweep/inferred: rendered figure title
    based_on: tuple[str, ...] = ()  # inferred: covering config names
    family_modules: tuple[str, ...] = ()  # imported before family resolution
    grids: tuple[GridSpec, ...] = field(default_factory=tuple)

    def cell_set(self) -> set[tuple]:
        """The union of every grid's cells (inference-graph currency)."""
        cells: set[tuple] = set()
        for grid in self.grids:
            cells.update(grid.cells())
        return cells


def _require(data: Mapping, key: str, path: str):
    if key not in data:
        raise ConfigurationError(f"config {path}: missing required field {key!r}")
    return data[key]


def _str_tuple(value, key: str, path: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigurationError(f"config {path}: {key!r} must be a list of strings")
    return tuple(value)


def _parse_grid(data, path: str) -> GridSpec:
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"config {path}: each grid must be an object")
    kind = _require(data, "kind", path)
    if kind not in _GRID_KINDS:
        raise ConfigurationError(
            f"config {path}: grid kind must be one of {_GRID_KINDS}, got {kind!r}"
        )
    families = _str_tuple(_require(data, "families", path), "families", path)
    budgets = _require(data, "budgets", path)
    if (
        not isinstance(budgets, list)
        or not budgets
        or not all(isinstance(b, int) and b > 0 for b in budgets)
    ):
        raise ConfigurationError(
            f"config {path}: 'budgets' must be a non-empty list of positive integers"
        )
    benchmarks = data.get("benchmarks")
    if benchmarks is not None:
        benchmarks = _str_tuple(benchmarks, "benchmarks", path)
    modes: tuple[str, ...] = ()
    if kind == "ipc":
        modes = _str_tuple(_require(data, "modes", path), "modes", path)
        if not modes:
            raise ConfigurationError(f"config {path}: an ipc grid needs 'modes'")
    elif "modes" in data:
        raise ConfigurationError(f"config {path}: 'modes' is only valid for ipc grids")
    return GridSpec(
        kind=kind,
        families=families,
        budgets=tuple(budgets),
        benchmarks=benchmarks,
        modes=modes,
    )


def load_config(path: str) -> TargetConfig:
    """Parse and validate one config file; raises ConfigurationError."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from None
    return parse_config(data, path)


def parse_config(data: object, path: str = "<memory>") -> TargetConfig:
    """Validate one already-parsed config document (the prediction service
    submits these over the wire, so validation must not require a file);
    ``path`` labels diagnostics.  Raises ConfigurationError."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"config {path}: top level must be an object")
    if data.get("schema") != CONFIG_SCHEMA:
        raise ConfigurationError(
            f"config {path}: schema {data.get('schema')!r} unsupported "
            f"(expected {CONFIG_SCHEMA})"
        )
    name = _require(data, "target", path)
    if not isinstance(name, str) or not name:
        raise ConfigurationError(f"config {path}: 'target' must be a non-empty string")
    mode = _require(data, "mode", path)
    if mode not in _MODES:
        raise ConfigurationError(
            f"config {path}: mode must be one of {_MODES}, got {mode!r}"
        )
    grids = tuple(_parse_grid(grid, path) for grid in data.get("grids", []))
    runner = data.get("runner", "")
    title = data.get("title", "")
    based_on = _str_tuple(data.get("based_on", []), "based_on", path)
    family_modules = _str_tuple(
        data.get("family_modules", []), "family_modules", path
    )
    if mode == "runner" and not runner:
        raise ConfigurationError(f"config {path}: runner mode requires 'runner'")
    if mode in ("sweep", "inferred"):
        if len(grids) != 1:
            raise ConfigurationError(
                f"config {path}: {mode} mode requires exactly one grid"
            )
        if not title:
            raise ConfigurationError(f"config {path}: {mode} mode requires 'title'")
    if mode == "inferred" and not based_on:
        raise ConfigurationError(
            f"config {path}: inferred mode requires a non-empty 'based_on'"
        )
    if mode != "inferred" and based_on:
        raise ConfigurationError(
            f"config {path}: 'based_on' is only valid for inferred configs"
        )
    return TargetConfig(
        name=name,
        mode=mode,
        path=path,
        runner=runner,
        title=title,
        based_on=based_on,
        family_modules=family_modules,
        grids=grids,
    )


def load_configs(paths: list[str]) -> list[TargetConfig]:
    """Load every config named by ``paths`` (files, or directories whose
    ``*.json`` entries are loaded in sorted order); duplicate target names
    are refused, and every inferred config's inference graph is validated."""
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            entries = sorted(
                entry for entry in os.listdir(path) if entry.endswith(".json")
            )
            if not entries:
                raise ConfigurationError(f"config directory {path} has no *.json files")
            files.extend(os.path.join(path, entry) for entry in entries)
        else:
            files.append(path)
    configs = [load_config(path) for path in files]
    seen: dict[str, str] = {}
    for config in configs:
        if config.name in seen:
            raise ConfigurationError(
                f"duplicate config target {config.name!r} "
                f"({seen[config.name]} and {config.path})"
            )
        seen[config.name] = config.path
    validate_inference(configs)
    return configs


def validate_inference(configs: list[TargetConfig]) -> None:
    """Check the inference graph: every inferred config names loaded bases
    and declares only cells those bases' grids cover."""
    by_name = {config.name: config for config in configs}
    for config in configs:
        if config.mode != "inferred":
            continue
        covered: set[tuple] = set()
        for base_name in config.based_on:
            base = by_name.get(base_name)
            if base is None:
                raise ConfigurationError(
                    f"config {config.path}: inferred target {config.name!r} is "
                    f"based on {base_name!r}, which is not among the loaded configs"
                )
            if base.mode == "inferred":
                raise ConfigurationError(
                    f"config {config.path}: base {base_name!r} is itself inferred "
                    f"(inference is one level deep; base on its bases instead)"
                )
            covered.update(base.cell_set())
        uncovered = config.cell_set() - covered
        if uncovered:
            sample = sorted(uncovered)[:3]
            raise ConfigurationError(
                f"config {config.path}: {len(uncovered)} cell(s) of inferred "
                f"target {config.name!r} are not covered by its bases "
                f"{list(config.based_on)} (e.g. {sample})"
            )


# -- dry-run classification ----------------------------------------------------


def _import_family_modules(config: TargetConfig) -> None:
    for module in config.family_modules:
        importlib.import_module(module)


def grid_cfg(kind: str) -> dict:
    """The per-kind sweep configuration the current environment resolves
    to — the very dict the sweeps pin in ``campaign.json``, so a config
    target's cell keys match the sweeps' exactly."""
    from repro.harness.experiment import default_engine
    from repro.harness.resultstore import CODE_VERSION, IPC_MODEL_VERSION
    from repro.harness.scale import (
        WARMUP_FRACTION,
        accuracy_instructions,
        ipc_instructions,
    )
    from repro.uarch.config import PAPER_MACHINE

    if kind == "accuracy":
        return {
            "instructions": accuracy_instructions(),
            "engine": default_engine(),
            "warmup_fraction": WARMUP_FRACTION,
            "code_version": CODE_VERSION,
        }
    return {
        "instructions": ipc_instructions(),
        "machine": asdict(PAPER_MACHINE),
        "model_version": IPC_MODEL_VERSION,
        "code_version": CODE_VERSION,
    }


def grid_shards(grid: GridSpec) -> list:
    """Every grid cell as a campaign :class:`~repro.harness.campaign.Shard`,
    in the order :meth:`GridSpec.cells` yields them."""
    from repro.harness.campaign import Shard

    return [Shard(grid.kind, *cell) for cell in grid.cells()]


def classify(config: TargetConfig, store, run_dir: str | None = None) -> dict:
    """Dry-run classification of one target through the campaign scanner.

    Non-mutating (store probes only).  Without ``run_dir`` the result
    store is the only evidence, so cells classify as ``completed`` (hit)
    or ``missing``; with one, checkpoints, failure markers, and claims
    classify into all five campaign classes.  ``hit``/``miss`` summarize
    the counts either way: hit = recoverable without predictor work
    (completed + results_missing), miss = everything that must execute.
    """
    from repro.harness.campaign import CLASSES, CampaignLayout, classify_shard

    _import_family_modules(config)
    layout = CampaignLayout(run_dir) if run_dir else None
    counts = dict.fromkeys(CLASSES, 0)
    for grid in config.grids:
        cfg = grid_cfg(grid.kind)
        for shard in grid_shards(grid):
            counts[
                classify_shard(shard, layout=layout, result_store=store, cfg=cfg)
            ] += 1
    return {
        "target": config.name,
        "mode": config.mode,
        "inferred": config.mode == "inferred",
        "based_on": list(config.based_on),
        "cells": sum(counts.values()),
        "counts": counts,
        "hit": counts["completed"] + counts["results_missing"],
        "miss": counts["failed"] + counts["partial"] + counts["missing"],
    }


# -- execution -----------------------------------------------------------------


def _render_grid(config: TargetConfig) -> str:
    """Render a sweep/inferred config's single grid as a SeriesFigure.

    Resolution goes through the ordinary sweeps, so the result store (when
    active) supplies every already-computed cell; with the declared grid
    warm, rendering performs zero predictor work.
    """
    from repro.harness.figures import SeriesFigure
    from repro.harness.sweep import (
        accuracy_sweep,
        hmean_ipc_by_family_budget,
        ipc_sweep,
        mean_by_family_budget,
    )

    grid = config.grids[0]
    benchmarks = list(grid.benchmarks) if grid.benchmarks is not None else None
    figure = SeriesFigure(title=config.title, x_values=list(grid.budgets))
    if grid.kind == "accuracy":
        cells = accuracy_sweep(
            list(grid.families), list(grid.budgets), benchmarks=benchmarks
        )
        for (family, budget), value in mean_by_family_budget(cells).items():
            figure.series.setdefault(family, {})[budget] = value
        return figure.render()
    multi_mode = len(grid.modes) > 1
    for mode in grid.modes:
        cells = ipc_sweep(
            list(grid.families),
            list(grid.budgets),
            mode=mode,
            benchmarks=benchmarks,
        )
        for (family, budget), value in hmean_ipc_by_family_budget(cells).items():
            name = f"{family} [{mode}]" if multi_mode else family
            figure.series.setdefault(name, {})[budget] = value
    return figure.render()


def run_target(config: TargetConfig, runners: Mapping[str, object]) -> str:
    """Regenerate one config target; returns the rendered text.

    ``runners`` is the CLI's name->callable table (passed in rather than
    imported, keeping this module importable below the CLI).
    """
    _import_family_modules(config)
    if config.mode == "runner":
        runner = runners.get(config.runner)
        if runner is None:
            raise ConfigurationError(
                f"config {config.path}: unknown runner {config.runner!r} "
                f"(choose from {', '.join(runners)})"
            )
        return runner()
    return _render_grid(config)
