"""The settings table: every ``REPRO_*`` knob declared once, read and
written only through :mod:`repro.common.settings`, and checked by every
console entry point before any work."""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from repro.common import settings
from repro.common.errors import ConfigurationError

ROOT = Path(__file__).resolve().parent.parent

#: Built, not spelt, so the literal scan below sees only declared names.
MISSPELT_ENGINE = "REPRO_ENGINE"[:-1]

FLAG_SPELLINGS = {
    "1": True, "TRUE": True, " yes ": True, "On": True,
    "0": False, "False": False, "no": False, " OFF": False,
}
CPUS = os.cpu_count() or 1

#: Per setting: spellings it accepts with the value each reads as, and
#: one malformed value it refuses (``None``: any text is valid).
CASES = {
    "REPRO_SCALE": ({"2.5": 2.5, "0.01": 0.01, " 16 ": 16.0}, "lots"),
    "REPRO_BENCHMARKS": (
        {"gcc,eon": ["gcc", "eon"], "eon,gcc,eon,gcc,gzip": ["eon", "gcc", "gzip"]},
        "gccc",
    ),
    "REPRO_ENGINE": ({"scalar": "scalar", "BATCH": "batch", " auto ": "auto"}, "fast"),
    "REPRO_JOBS": ({"3": 3, "auto": CPUS, "0": CPUS, "AUTO": CPUS}, "1.5"),
    "REPRO_RUN_DIR": ({"runs/a": "runs/a", " /tmp/run ": "/tmp/run"}, None),
    "REPRO_MAX_RETRIES": ({"0": 0, "9": 9}, "many"),
    "REPRO_CAMPAIGN_STALE_SECONDS": ({"5": 5.0, "0.5": 0.5}, "0"),
    "REPRO_CAMPAIGN_POLL_SECONDS": ({"0": 0.0, "1.5": 1.5}, "-1"),
    "REPRO_TRACE_STORE": ({"/tmp/traces": "/tmp/traces"}, None),
    "REPRO_TRACE_STORE_CAPACITY": ({"7": 7}, "nope"),
    "REPRO_TRACE_CACHE": ({"4": 4, "1": 1}, "tiny"),
    "REPRO_RESULT_STORE": ({"/tmp/results": "/tmp/results"}, None),
    "REPRO_RESULT_STORE_CAPACITY": ({"7": 7}, "0"),
    "REPRO_PROFILE": (FLAG_SPELLINGS, "flase"),
    "REPRO_VERBOSE": (FLAG_SPELLINGS, "o n"),
    "REPRO_LOG": ({"/tmp/events.jsonl": "/tmp/events.jsonl"}, None),
    "REPRO_SERVICE_DIR": ({"svc": "svc"}, None),
    "REPRO_SERVICE_WORKERS": ({"1": 1, "4": 4}, "0"),
    "REPRO_SERVICE_MAX_PENDING": ({"5": 5}, "many"),
    "REPRO_SERVICE_BODY_LIMIT": ({"1024": 1024}, "-1"),
    "REPRO_SERVICE_REQUEST_TIMEOUT": ({"2.5": 2.5}, "0"),
    "REPRO_SERVICE_MAX_WAIT": ({"4": 4.0}, "-3"),
    "REPRO_SERVICE_DRAIN_TIMEOUT": ({"6": 6.0}, "soon"),
    "REPRO_CAMPAIGN_ABORT_AFTER": ({"0": 0, "2": 2}, "x"),
    "REPRO_CAMPAIGN_FAIL_CELL": ({"gcc__gshare": "gcc__gshare"}, None),
    "REPRO_CAMPAIGN_FAIL_ATTEMPTS": ({"1": 1, "99": 99}, "-1"),
    "REPRO_CAMPAIGN_SLOW_CELL": ({"eon__bimodal": "eon__bimodal"}, None),
    "REPRO_CAMPAIGN_SLOW_SECONDS": ({"0.5": 0.5, "3": 3.0}, "-1"),
    "REPRO_LOG_OWNER_PID": ({"1": 1, "4242": 4242}, "me"),
}


def test_every_setting_has_cases():
    assert set(CASES) == set(settings.SETTINGS)
    assert len(settings.SETTINGS) == 29


def _typed(value):
    return value, type(value)


@pytest.mark.parametrize("name", sorted(settings.SETTINGS))
def test_every_declared_setting(monkeypatch, name):
    """Unset and blank read as the default, the default's own spelling
    reads back as it, today's spellings parse, and one malformed value is
    refused naming the variable and the value."""
    setting = settings.SETTINGS[name]
    accepted, malformed = CASES[name]
    monkeypatch.delenv(name, raising=False)
    assert _typed(settings.get(name)) == _typed(setting.default)
    for blank in ("", "   "):
        monkeypatch.setenv(name, blank)
        assert _typed(settings.get(name)) == _typed(setting.default)
    if setting.default is not None:
        monkeypatch.setenv(name, str(setting.default))
        assert _typed(settings.get(name)) == _typed(setting.default)
    for raw, value in accepted.items():
        monkeypatch.setenv(name, raw)
        assert _typed(settings.get(name)) == _typed(value)
    if malformed is not None:
        monkeypatch.setenv(name, malformed)
        with pytest.raises(ConfigurationError, match=name) as exc:
            settings.get(name)
        assert repr(malformed) in str(exc.value)
        with pytest.raises(ConfigurationError, match=name):
            settings.check_environment()


def test_undeclared_name_is_refused_naming_the_closest(monkeypatch):
    monkeypatch.setenv(MISSPELT_ENGINE, "scalar")
    with pytest.raises(ConfigurationError, match=f"{MISSPELT_ENGINE} .*REPRO_ENGINE"):
        settings.check_environment()
    with pytest.raises(ConfigurationError, match="did you mean REPRO_ENGINE"):
        settings.get(MISSPELT_ENGINE)


def test_check_environment_checks_values_about_to_be_applied(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    settings.check_environment({"REPRO_JOBS": "auto", "REPRO_ENGINE": None})
    with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
        settings.check_environment({"REPRO_JOBS": "abc"})


def test_set_validates_before_it_writes(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
        settings.set("REPRO_JOBS", "abc")
    assert os.environ["REPRO_JOBS"] == "2"
    settings.set("REPRO_JOBS", 3)
    assert settings.get("REPRO_JOBS") == 3
    settings.set("REPRO_JOBS", None)
    assert "REPRO_JOBS" not in os.environ


def test_applied_restores_and_writes_nothing_invalid(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "batch")
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    with settings.applied({"REPRO_ENGINE": "scalar", "REPRO_JOBS": 2}):
        assert settings.get("REPRO_ENGINE") == "scalar"
        assert settings.get("REPRO_JOBS") == 2
    assert os.environ["REPRO_ENGINE"] == "batch"
    assert "REPRO_JOBS" not in os.environ
    with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
        with settings.applied({"REPRO_ENGINE": "scalar", "REPRO_JOBS": "abc"}):
            pass
    assert os.environ["REPRO_ENGINE"] == "batch"


# -- the console entry points --------------------------------------------------


def _work_started(*args, **kwargs):
    raise AssertionError("the entry point started work")


def _entry_point(name: str, tmp_path: Path, monkeypatch):
    """``(main, argv)`` for one console entry point, with the first step of
    its work replaced by a failure."""
    from repro.harness import campaign, cli, figures

    if name == "repro-figures":
        monkeypatch.setattr(figures, "build_figure", _work_started)
        return cli.main, ["figure1", "--result-store", str(tmp_path / "store")]
    if name == "repro-campaign":
        monkeypatch.setattr(campaign, "scan", _work_started)
        return cli.campaign_main, ["scan", str(tmp_path / "run")]
    if name == "repro-stats":
        from repro.obs import cli as stats

        monkeypatch.setattr(stats, "load_manifest", _work_started)
        return stats.main, ["show", str(tmp_path / "m.manifest.json")]
    if name == "repro-serve":
        from repro.service import daemon

        monkeypatch.setattr(daemon, "_amain", _work_started)
        return daemon.main, ["--data-dir", str(tmp_path / "svc"), "--port", "0"]
    from repro.service import worker

    monkeypatch.setattr(campaign, "run_worker", _work_started)
    return worker.main, [str(tmp_path / "run")]


ENTRY_POINTS = [
    "repro-figures", "repro-campaign", "repro-stats", "repro-serve", "repro.service.worker",
]


@pytest.mark.parametrize(
    "entry, env, argv, named",
    [
        *[(entry, {MISSPELT_ENGINE: "scalar"}, None, "REPRO_ENGINE") for entry in ENTRY_POINTS],
        ("repro-figures", {"REPRO_JOBS": "abc"}, ["table2"], "REPRO_JOBS"),
        ("repro-figures", {}, ["extension", "--jobs", "abc"], "REPRO_JOBS"),
        ("repro-figures", {"REPRO_BENCHMARKS": "gccc"}, ["table2"], "REPRO_BENCHMARKS"),
        ("repro-figures", {"REPRO_MAX_RETRIES": "-1"}, ["table2"], "REPRO_MAX_RETRIES"),
        ("repro-campaign", {"REPRO_PROFILE": "flase"}, None, "REPRO_PROFILE"),
    ],
)
def test_entry_point_refuses_a_bad_setting_before_any_work(
    tmp_path, monkeypatch, capsys, entry, env, argv, named
):
    """Exit 2 with one line naming the setting; no store directory, no
    data directory, no campaign read, no port bound."""
    main, default_argv = _entry_point(entry, tmp_path, monkeypatch)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    with pytest.raises(SystemExit) as exc:
        main(argv or default_argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert named in err
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_figures_main_leaves_the_environment_as_it_found_it(tmp_path, monkeypatch, capsys):
    """Flags apply for the run only: main() restores every ``REPRO_*``."""
    from repro.harness.cli import main

    monkeypatch.setenv("REPRO_SCALE", "0.02")
    monkeypatch.setenv("REPRO_BENCHMARKS", "gcc")
    monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
    before = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    argv = ["extension", "--engine", "scalar", "--jobs", "1", "--trace-store", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert {k: v for k, v in os.environ.items() if k.startswith("REPRO_")} == before


# -- static checks ---------------------------------------------------------------

#: Where a ``REPRO_*`` literal must name a declared setting.
SCANNED = [
    "src", "tests", "scripts", "benchmarks", "perfbench", ".github", "README.md", "DESIGN.md",
]


def _scanned_files():
    for entry in SCANNED:
        path = ROOT / entry
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for file in files:
            if file.is_file() and file.suffix in (".py", ".md", ".yml", ".json", ".c"):
                yield file


def test_only_the_settings_module_touches_the_environment():
    offenders = [
        str(path.relative_to(ROOT))
        for path in sorted((ROOT / "src").rglob("*.py"))
        if path.name != "settings.py" and re.search(r"\benviron\b|getenv", path.read_text())
    ]
    assert offenders == []


def test_every_literal_names_a_declared_setting():
    """A renamed or misspelt knob left behind anywhere shows up here; a
    wildcard such as ``REPRO_SERVICE_*`` must prefix a declared name."""
    undeclared = set()
    for path in _scanned_files():
        for match in re.finditer(r"REPRO_[A-Z_]+(\*?)", path.read_text(errors="replace")):
            name = match.group(0).rstrip("*")
            if match.group(1):
                known = any(declared.startswith(name) for declared in settings.SETTINGS)
            else:
                known = name in settings.SETTINGS
            if not known:
                undeclared.add(f"{path.relative_to(ROOT)}: {name}")
    assert sorted(undeclared) == []


def test_readme_lists_exactly_the_declared_settings():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Settings\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, flags=re.MULTILINE)
    assert len(names) == len(set(names))
    assert set(names) == set(settings.SETTINGS)
