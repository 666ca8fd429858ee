"""Smoke tests for figure regeneration and the CLI (tiny scale)."""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.harness import figures
from repro.harness.cli import RUNNERS, main

#: The shipped declarative target configs (consumed by --config).
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
#: The committed results, one file per ``repro-figures`` target.
RESULTS = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    """Shrink every figure to a two-benchmark, short-trace configuration."""
    monkeypatch.setenv("REPRO_SCALE", "0.1")
    monkeypatch.setenv("REPRO_BENCHMARKS", "gzip,eon")


SMALL_BUDGETS = [8 * 1024, 64 * 1024]


def build(name: str, budgets: list[int] | None = None) -> list[figures.Panel]:
    """``FIGURES[name]``, over ``budgets`` instead of its ladder if given."""
    figure = figures.FIGURES[name]
    if budgets is not None:
        figure = replace(
            figure,
            panels=tuple(
                replace(
                    panel,
                    grids=tuple(replace(grid, budgets=tuple(budgets)) for grid in panel.grids),
                )
                for panel in figure.panels
            ),
        )
    return figures.build_figure(name, figure)


class TestFigures:
    def test_figure1(self):
        (figure,) = build("figure1", SMALL_BUDGETS)
        assert set(figure.series) == {"gshare", "bimode", "multicomponent", "perceptron"}
        for family in figure.series:
            assert set(figure.series[family]) == set(SMALL_BUDGETS)
        text = figure.render()
        assert "Figure 1" in text and "64K" in text

    def test_figure5(self):
        (figure,) = build("figure5", SMALL_BUDGETS)
        assert "gshare_fast" in figure.series
        assert all(0 <= v < 100 for values in figure.series.values() for v in values.values())

    def test_figure6(self):
        (figure,) = build("figure6")
        assert figure.rows == ["gzip", "eon"]
        assert "perceptron" in figure.series
        assert figure.means["perceptron"] > 0
        assert "arith.mean" in figure.render()

    def test_figure2(self):
        (figure,) = build("figure2", [16 * 1024])
        labels = set(figure.series)
        assert any("(no delay)" in label for label in labels)
        assert any("(overriding)" in label for label in labels)

    def test_figure7_two_panels(self):
        left, right = build("figure7", [16 * 1024])
        assert "ideal" in left.title
        assert "overriding" in right.title
        for panel in (left, right):
            assert "gshare_fast" in panel.series
            for values in panel.series.values():
                for ipc in values.values():
                    assert 0 < ipc < 8

    def test_figure8(self):
        (figure,) = build("figure8", [16 * 1024])
        assert "harm.mean" in figure.render()
        assert set(figure.series) == {"multicomponent", "perceptron", "gshare_fast"}

    def test_value_format_follows_grid_kind(self):
        """Misprediction percentages print to two decimals, IPC to three."""
        accuracy = figures.Panel("a", "accuracy", [1024], series={"x": {1024: 1.23456}})
        ipc = figures.Panel("i", "ipc", [1024], series={"x": {1024: 1.23456}})
        assert "1.23" in accuracy.render() and "1.235" not in accuracy.render()
        assert "1.235" in ipc.render()

    def test_table1_contents(self):
        text = figures.table1()
        assert "64 KB" in text
        assert "2 MB" in text
        assert "512 entry" in text
        assert "20" in text

    def test_table2_contents(self):
        text = figures.table2()
        assert "18K" in text and "512K" in text

    def test_delayed_update_study(self):
        (panel,) = build("delayed-update")
        assert panel.rows == ["0", "16", "64", "256"]
        mispredict = panel.series["mispredict %"]
        ipc = panel.series["IPC (hmean)"]
        # Section 3.2: slow update costs almost nothing.
        delta = abs(mispredict["64"] - mispredict["0"])
        assert delta < 1.0
        ipc_ratio = ipc["64"] / ipc["0"]
        assert 0.97 < ipc_ratio < 1.03
        assert "update delay" in panel.render()

    def test_extension(self):
        (figure,) = build("extension", [16 * 1024])
        assert set(figure.series) == {"gshare_fast", "bimode_fast"}
        assert (
            figure.series["bimode_fast"][16 * 1024]
            < figure.series["gshare_fast"][16 * 1024]
        )

    def test_override_disagreement(self):
        perceptron, multicomponent = build("override", [16 * 1024])
        rates = perceptron.series["override %"]
        assert set(rates) == {"gzip", "eon"}
        assert 0 < perceptron.means["override %"] < 0.5
        assert "override" in perceptron.render()
        assert "multicomponent" in multicomponent.title

    @pytest.mark.parametrize(
        "name, rows, columns",
        [
            ("abl_buffer_size", ["8", "32", "128", "1024"], ["mispredict %"]),
            ("abl_history_length", ["4", "8", "12", "14", "18"], ["mispredict %"]),
            (
                "abl_pipeline_depth",
                ["10", "20", "40"],
                ["gshare.fast", "perceptron overriding", "perceptron dual-path"],
            ),
            (
                "abl_quick_size",
                ["1024", "2048", "4096", "8192"],
                ["override %", "final mispredict rate"],
            ),
        ],
    )
    def test_ablation_rows_and_columns(self, name, rows, columns):
        """Each ablation renders its declared rows, and its columns in the
        declared order, every cell filled."""
        (panel,) = build(name)
        assert panel.rows == rows
        for column in columns:
            assert list(panel.series[column]) == rows
        header = panel.render().splitlines()[2]
        assert [cell for cell in header.split("  ") if cell.strip()][1:] == columns


class TestCli:
    def test_runner_registry_covers_all_experiments(self):
        expected = {
            "figure1",
            "figure2",
            "table1",
            "table2",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "delayed-update",
            "override",
            "extension",
            "abl_buffer_size",
            "abl_history_length",
            "abl_pipeline_depth",
            "abl_quick_size",
        }
        assert set(RUNNERS) == expected

    def test_one_runner_per_committed_result(self):
        """``repro-figures all`` prints every committed result: one target
        per ``results/*.txt`` stem, and no other."""
        assert set(RUNNERS) == {path.stem for path in RESULTS.glob("*.txt")}

    def test_cli_runs_tables(self, capsys):
        assert main(["table1", "table2"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output and "Table 2" in output

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["figure9"])

    @pytest.mark.parametrize("name", ["REPRO_PROFILE", "REPRO_VERBOSE"])
    def test_misspelt_obs_flag_is_a_usage_error(self, tmp_path, capsys, monkeypatch, name):
        """A misspelt flag value stops repro-figures with exit 2 before any
        work: nothing reaches the result store."""
        store = tmp_path / "results"
        monkeypatch.setenv(name, "flase")
        with pytest.raises(SystemExit) as exc:
            main(["figure1", "--result-store", str(store)])
        assert exc.value.code == 2
        assert f"{name}='flase'" in capsys.readouterr().err
        assert not store.exists() or not any(store.rglob("*"))

    def test_cli_rejects_empty_invocation(self):
        with pytest.raises(SystemExit):
            main([])

    def test_figure7_identical_on_both_engines(self, tmp_path, capsys, monkeypatch):
        """``--engine`` reaches the cycle simulator's direction streams:
        scalar runs no batch kernel, auto runs them, and the figure is the
        same byte for byte.  IPC result keys do not carry the engine, so
        each engine gets its own result store."""
        import repro.batch.engine as batch_engine

        calls = []
        evaluate_stream = batch_engine.evaluate_stream

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate_stream(*args, **kwargs)

        monkeypatch.setattr(batch_engine, "evaluate_stream", counted)
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        rendered = {}
        kernel_calls = {}
        for engine in ("scalar", "auto"):
            monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / f"store-{engine}"))
            out = tmp_path / f"out-{engine}"
            calls.clear()
            assert main(["figure7", "--engine", engine, "--output-dir", str(out)]) == 0
            rendered[engine] = (out / "figure7.txt").read_bytes()
            kernel_calls[engine] = len(calls)
        capsys.readouterr()
        assert kernel_calls["scalar"] == 0 < kernel_calls["auto"]
        assert rendered["scalar"] == rendered["auto"]

    def test_studies_rerun_warm_with_zero_work(self, tmp_path, capsys, monkeypatch):
        """The studies and ablations go through the result store: a second
        run on warm stores prints the same bytes with no predictor build,
        no trace generation and no result-store miss."""
        from repro.harness.resultstore import reset_result_store_stats, result_store_stats
        from repro.predictors import registry
        from repro.workloads import spec2000

        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "traces"))
        targets = ["delayed-update", "override", "abl_pipeline_depth", "abl_quick_size"]
        assert main(targets) == 0
        cold = capsys.readouterr().out
        spec2000.clear_trace_cache()
        reset_result_store_stats()
        registry.reset_build_count()
        generations = spec2000.executor_run_count()
        assert main(targets) == 0
        assert capsys.readouterr().out == cold
        assert registry.build_count() == 0
        assert spec2000.executor_run_count() == generations
        assert result_store_stats()["misses"] == 0

    def test_study_on_two_workers_matches_one(self, tmp_path, capsys, monkeypatch):
        """``--jobs 2`` drains a study through campaign workers with the
        same bytes as the in-process path, every cell through the result
        store (2 benchmarks x 4 delays x accuracy and IPC)."""
        rendered = []
        for jobs in ("1", "2"):
            store = tmp_path / f"results-{jobs}"
            monkeypatch.setenv("REPRO_RESULT_STORE", str(store))
            out = tmp_path / f"out-{jobs}"
            assert main(["delayed-update", "--jobs", jobs, "--output-dir", str(out)]) == 0
            rendered.append((out / "delayed-update.txt").read_bytes())
            assert len(list(store.glob("*.json"))) == 2 * 4 * 2
        capsys.readouterr()
        assert rendered[0] == rendered[1]

    def test_storeless_run_computes_each_key_once(self, tmp_path, capsys, monkeypatch):
        """Without a result store, main() runs against a private one it
        deletes on return: Figure 7's gshare.fast overriding cells are its
        ideal cells, so they are simulated once, as with a store, and the
        bytes are the same.  The manifest records no store."""
        import tempfile

        from repro.harness import cli
        from repro.uarch.simulator import CycleSimulator

        monkeypatch.setenv("REPRO_SCALE", "0.02")
        monkeypatch.setenv("REPRO_BENCHMARKS", "gcc,eon")
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        private = tmp_path / "tmp"
        private.mkdir()
        mkdtemp = tempfile.mkdtemp
        monkeypatch.setattr(
            cli.tempfile, "mkdtemp", lambda prefix: mkdtemp(prefix=prefix, dir=private)
        )
        runs = []
        run = CycleSimulator.run
        monkeypatch.setattr(
            CycleSimulator, "run", lambda self, *a, **k: runs.append(1) or run(self, *a, **k)
        )
        out = tmp_path / "out"
        assert main(["figure7", "--output-dir", str(out)]) == 0
        storeless = capsys.readouterr().out
        assert len(runs) == 84
        assert list(private.iterdir()) == []
        manifest = json.loads((out / "figure7.manifest.json").read_text())
        assert manifest["config"]["result_store"] is None
        runs.clear()
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        assert main(["figure7"]) == 0
        assert capsys.readouterr().out == storeless
        assert len(runs) == 84
        monkeypatch.delenv("REPRO_RESULT_STORE")
        assert main(["--config", str(CONFIGS / "figure7.json"), "--dry-run"]) == 0
        capsys.readouterr()
        assert list(private.iterdir()) == []

    def test_cli_list_families(self, capsys):
        from repro.predictors import registry

        assert main(["--list-families"]) == 0
        output = capsys.readouterr().out
        for family in registry.family_names():
            assert family in output
        assert "gshare_fast" in output

    def test_default_run_writes_no_sidecars(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["table2"]) == 0
        assert list(tmp_path.iterdir()) == []
        output = capsys.readouterr().out
        assert "Counters" not in output  # no metrics tables by default

    def test_output_dir_writes_text_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["table2", "--output-dir", str(out_dir)]) == 0
        text_path = out_dir / "table2.txt"
        manifest_path = out_dir / "table2.manifest.json"
        assert text_path.exists() and manifest_path.exists()
        rendered = capsys.readouterr().out
        assert text_path.read_text() == rendered.rstrip("\n") + "\n"

        from repro.obs.manifest import load_manifest, output_digest

        manifest = load_manifest(str(manifest_path))
        assert manifest["target"] == "table2"
        assert manifest["output"] == output_digest(text_path.read_text()[:-1])
        assert manifest["config"]["benchmarks"] == ["gzip", "eon"]

    def test_profile_prints_metrics_and_writes_manifest(self, tmp_path, capsys):
        from repro import obs
        from repro.obs.manifest import load_manifest

        out_dir = tmp_path / "results"
        assert main(["extension", "--profile", "--output-dir", str(out_dir)]) == 0
        output = capsys.readouterr().out
        assert "Counters" in output
        assert "accuracy.measurements" in output
        assert "Hard-to-predict branches:" in output

        manifest = load_manifest(str(out_dir / "extension.manifest.json"))
        assert "extension" in manifest["phases"]
        assert "extension.sweep" in manifest["phases"]
        assert manifest["metrics"]["counters"]["accuracy.measurements"] > 0
        assert manifest["metrics"]["attributions"]
        # The flag is scoped to the run: observability is off again after.
        assert obs.enabled_override() is None
        assert not obs.enabled()

    def test_profile_output_text_matches_unprofiled(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # --profile writes its manifest to cwd
        assert main(["table2"]) == 0
        plain = capsys.readouterr().out
        assert main(["table2", "--profile"]) == 0
        profiled = capsys.readouterr().out
        assert profiled.startswith(plain)  # figure text is byte-identical


def parse_dry_run(output: str) -> dict[str, dict]:
    """The --dry-run classification table as {target: {mode, cells, ...}}.

    Columns follow ``report.CLASSIFICATION_COLUMNS``; ``hit``/``miss`` are
    derived the way the planner groups the five classes (hit = nothing to
    execute, miss = must run).
    """
    rows = {}
    for line in output.splitlines():
        parts = line.split()
        if len(parts) >= 10 and parts[1] in ("runner", "sweep", "inferred"):
            row = {
                "mode": parts[1],
                "cells": int(parts[2]),
                "completed": int(parts[3]),
                "results_missing": int(parts[4]),
                "failed": int(parts[5]),
                "partial": int(parts[6]),
                "missing": int(parts[7]),
                "inferred": parts[8] == "yes",
            }
            row["hit"] = row["completed"] + row["results_missing"]
            row["miss"] = row["failed"] + row["partial"] + row["missing"]
            rows[parts[0]] = row
    return rows


class TestConfigTargets:
    """The --config path: declarative targets match the legacy CLI byte for
    byte, --dry-run classifies cells against the result store, inferred
    targets resolve purely from other configs' stored results, and an
    external family gets a figure with zero harness edits."""

    #: Cells in the full Figure 1 grid at the two-benchmark test scale.
    FIGURE1_CELLS = 4 * 9 * 2

    @pytest.fixture(scope="class")
    def warmed(self, tmp_path_factory):
        """One cold legacy figure1 run feeding a class-shared result store
        (the expensive sweep is paid once; every test below runs warm)."""
        from repro.harness.resultstore import reset_result_store_stats
        from repro.workloads.spec2000 import clear_trace_cache

        store = tmp_path_factory.mktemp("cfg-results")
        out = tmp_path_factory.mktemp("cfg-out")
        env = {
            "REPRO_SCALE": "0.05",
            "REPRO_BENCHMARKS": "gzip,eon",
            "REPRO_RESULT_STORE": str(store),
        }
        saved = {key: os.environ.get(key) for key in env}
        os.environ.update(env)
        clear_trace_cache()
        reset_result_store_stats()
        try:
            assert main(["figure1", "--output-dir", str(out / "legacy")]) == 0
            yield {
                "store": store,
                "out": out,
                "legacy": (out / "legacy" / "figure1.txt").read_bytes(),
            }
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value

    @pytest.fixture(autouse=True)
    def tiny_scale(self, monkeypatch, warmed):
        """Override the module fixture: same scale/benchmarks as the cold
        run, pointed at the class-shared store, with clean counters."""
        from repro.harness.resultstore import reset_result_store_stats
        from repro.predictors import registry
        from repro.workloads.spec2000 import clear_trace_cache

        monkeypatch.setenv("REPRO_SCALE", "0.05")
        monkeypatch.setenv("REPRO_BENCHMARKS", "gzip,eon")
        monkeypatch.setenv("REPRO_RESULT_STORE", str(warmed["store"]))
        clear_trace_cache()
        reset_result_store_stats()
        registry.reset_build_count()

    def test_explicit_config_matches_legacy_with_zero_builds(self, warmed, capsys):
        from repro.predictors import registry

        out = warmed["out"] / "explicit"
        assert main(["--config", str(CONFIGS / "figure1.json"), "--output-dir", str(out)]) == 0
        capsys.readouterr()
        assert (out / "figure1.txt").read_bytes() == warmed["legacy"]
        assert registry.build_count() == 0  # served entirely from the store

    def test_inferred_config_matches_legacy_with_zero_builds(self, warmed, capsys):
        from repro.predictors import registry

        out = warmed["out"] / "inferred"
        assert (
            main(
                [
                    "--config", str(CONFIGS / "figure1.json"),
                    "--config", str(CONFIGS / "figure1_inferred.json"),
                    "--output-dir", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (out / "figure1_inferred.txt").read_bytes() == warmed["legacy"]
        assert registry.build_count() == 0

    def test_dry_run_classifies_hits_and_misses(self, warmed, capsys, monkeypatch):
        from repro.predictors import registry

        args = [
            "--config", str(CONFIGS / "figure1.json"),
            "--config", str(CONFIGS / "figure1_inferred.json"),
            "--dry-run",
        ]
        assert main(args) == 0
        rows = parse_dry_run(capsys.readouterr().out)
        figure1 = rows["figure1"]
        assert figure1["mode"] == "runner"
        assert figure1["cells"] == self.FIGURE1_CELLS
        assert figure1["hit"] == self.FIGURE1_CELLS and figure1["miss"] == 0
        assert figure1["inferred"] is False
        assert rows["figure1_inferred"]["inferred"] is True
        assert rows["figure1_inferred"]["hit"] == self.FIGURE1_CELLS
        assert registry.build_count() == 0  # classification executes nothing

        # Against an empty store every cell is a miss.
        monkeypatch.setenv("REPRO_RESULT_STORE", str(warmed["out"] / "empty-store"))
        assert main(args) == 0
        rows = parse_dry_run(capsys.readouterr().out)
        assert rows["figure1"]["miss"] == self.FIGURE1_CELLS
        assert rows["figure1"]["hit"] == 0

    def test_toy_family_config_needs_no_harness_edits(self, warmed, tmp_path, capsys):
        """A config naming an external family (registered by its own module,
        listed in family_modules) renders a figure through the stock CLI."""
        config = {
            "schema": 1,
            "target": "toy_figure",
            "mode": "sweep",
            "title": "Toy family: mean misprediction (%)",
            "family_modules": ["tests.toy_family"],
            "grids": [
                {
                    "kind": "accuracy",
                    "families": ["toy_direct"],
                    "budgets": [8192, 65536],
                }
            ],
        }
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(path), "--output-dir", str(out)]) == 0
        capsys.readouterr()
        text = (out / "toy_figure.txt").read_text(encoding="utf-8")
        assert "Toy family" in text and "toy_direct" in text and "64K" in text

    def test_config_directory_loads_every_file(self, capsys):
        """--config with a directory loads all *.json, and the shipped
        configs/ directory itself is a valid, classifiable set."""
        assert main(["--config", str(CONFIGS), "--dry-run"]) == 0
        rows = parse_dry_run(capsys.readouterr().out)
        assert set(rows) >= {"figure1", "figure7", "table1", "figure1_inferred", "table_mid_accuracy"}
        assert rows["table1"]["cells"] == 0  # static table: nothing to sweep
        # Every repro-figures target has a runner config; only the two
        # tables have no cells.
        assert set(RUNNERS) <= set(rows)
        assert {name for name, row in rows.items() if row["cells"] == 0} == {"table1", "table2"}

    def test_runner_config_takes_its_grids_from_figures(self):
        from repro.harness.figconfig import load_config

        config = load_config(str(CONFIGS / "figure7.json"))
        assert config.grids == figures.FIGURES["figure7"].grids
        assert load_config(str(CONFIGS / "table1.json")).grids == ()

    def test_runner_config_declaring_grids_is_refused(self, tmp_path):
        """A declared grid would be planned but never rendered (the runner
        renders its built-in figure), so a runner config may not have one."""
        from repro.common.errors import ConfigurationError
        from repro.harness.figconfig import load_config

        config = json.loads((CONFIGS / "figure6.json").read_text(encoding="utf-8"))
        config["grids"] = [{"kind": "accuracy", "families": ["gshare"], "budgets": [2048]}]
        path = tmp_path / "figure6.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="grids"):
            load_config(str(path))
        with pytest.raises(SystemExit):
            main(["--config", str(path), "--dry-run"])

    def test_two_mode_ipc_sweep_labels_series_like_figure2(self, tmp_path, capsys):
        config = {
            "schema": 1,
            "target": "two_modes",
            "mode": "sweep",
            "title": "Two modes: harmonic mean IPC",
            "grids": [
                {
                    "kind": "ipc",
                    "families": ["perceptron"],
                    "budgets": [16384],
                    "modes": ["ideal", "overriding"],
                }
            ],
        }
        path = tmp_path / "two_modes.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(path), "--output-dir", str(out)]) == 0
        capsys.readouterr()
        text = (out / "two_modes.txt").read_text(encoding="utf-8")
        assert "perceptron (no delay)" in text and "perceptron (overriding)" in text

    def test_unknown_ipc_mode_is_refused_when_parsed(self, tmp_path, capsys):
        """A misspelt mode fails parsing, naming the valid modes, instead of
        failing the run after the valid modes' cells were computed."""
        from repro.common.errors import ConfigurationError
        from repro.harness.figconfig import parse_config

        config = {
            "schema": 1,
            "target": "typo",
            "mode": "sweep",
            "title": "x",
            "grids": [
                {
                    "kind": "ipc",
                    "families": ["gshare_fast"],
                    "budgets": [2048],
                    "modes": ["ideal", "overridng"],
                }
            ],
        }
        with pytest.raises(ConfigurationError, match="'overridng'.*ideal, overriding"):
            parse_config(config)
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["--config", str(path), "--dry-run"])
        assert "overridng" in capsys.readouterr().err

    def test_campaign_refuses_unknown_ipc_mode(self, tmp_path, capsys):
        from repro.harness.cli import campaign_main

        run_dir = tmp_path / "run"
        with pytest.raises(SystemExit):
            campaign_main([
                "run", str(run_dir), "--kind", "ipc", "--families", "gshare_fast",
                "--budgets", "2048", "--mode", "ideal,overridng",
            ])
        assert "overridng" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_inferred_requires_loaded_base(self):
        with pytest.raises(SystemExit):
            main(["--config", str(CONFIGS / "figure1_inferred.json"), "--dry-run"])

    def test_inferred_cells_must_be_covered(self, tmp_path):
        config = {
            "schema": 1,
            "target": "uncovered",
            "mode": "inferred",
            "title": "x",
            "based_on": ["figure1"],
            "grids": [
                {"kind": "accuracy", "families": ["gshare"], "budgets": [1024]}
            ],
        }
        path = tmp_path / "uncovered.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["--config", str(CONFIGS / "figure1.json"), "--config", str(path), "--dry-run"])

    def test_bad_schema_and_bad_mode_rejected(self, tmp_path):
        bad_schema = tmp_path / "bad_schema.json"
        bad_schema.write_text('{"schema": 99, "target": "x", "mode": "runner"}')
        with pytest.raises(SystemExit):
            main(["--config", str(bad_schema), "--dry-run"])
        bad_mode = tmp_path / "bad_mode.json"
        bad_mode.write_text('{"schema": 1, "target": "x", "mode": "psychic"}')
        with pytest.raises(SystemExit):
            main(["--config", str(bad_mode), "--dry-run"])

    def test_dry_run_requires_config(self):
        with pytest.raises(SystemExit):
            main(["--dry-run"])
