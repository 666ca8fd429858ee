"""Every ``REPRO_*`` setting, declared once: its name, parser, default and
meaning (:data:`SETTINGS`).

The environment is the one carrier of settings.  Forked campaign workers,
the spawned service worker and in-process callers all inherit it, so a
setting is read where it is used, with :func:`get`: one lookup and one
parse, nothing cached.  It is written only through :func:`set` and
:func:`applied`, which validate before they write.  An unset or blank
variable reads as the setting's default.

Each console entry point calls :func:`check_at_start` before any work: an
undeclared ``REPRO_*`` name (the message names the closest declared one)
or a malformed value of any declared setting is a usage error, exit 2.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass

from repro.common.errors import ConfigurationError

#: The predictor evaluation engines (``REPRO_ENGINE``, ``--engine``).
ENGINES = ("auto", "scalar", "batch")

#: On/off flag spellings, case-insensitive (blank reads as off).
FLAG_ON = ("1", "true", "yes", "on")
FLAG_OFF = ("0", "false", "no", "off")


# -- parsers: a stripped, non-blank value -> the setting's value ---------------
# A parser raises ValueError saying what is wrong; :func:`parse` names the
# variable and its value.


def _number(kind: type, low: float, strict: bool = False) -> Callable[[str], float]:
    """A float or int parser bounded below by ``low`` (excluded if strict)."""
    word = "a number" if kind is float else "an integer"
    problem = f"is not {word} {'>' if strict else '>='} {low}"

    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            raise ValueError(problem) from None
        if not (value > low if strict else value >= low):
            raise ValueError(problem)
        return value

    return parse


def _flag(raw: str) -> bool:
    value = raw.lower()
    if value not in FLAG_ON + FLAG_OFF:
        raise ValueError(
            f"is not an on/off flag (on: {', '.join(FLAG_ON)}; "
            f"off: {', '.join(FLAG_OFF)} or empty)"
        )
    return value in FLAG_ON


def _engine(raw: str) -> str:
    if raw.lower() not in ENGINES:
        raise ValueError(f"is not one of {', '.join(ENGINES)}")
    return raw.lower()


def _jobs(raw: str) -> int:
    """``auto`` or ``0``: one worker per CPU; else an integer >= 1."""
    if raw.lower() in ("auto", "0"):
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError("is not a positive integer or 'auto'")
    return value


def _workloads(raw: str) -> list[str]:
    """A comma list of catalog workloads, deduplicated in order: a repeat
    would run a benchmark twice and double-weight it in every mean."""
    from repro.workloads.catalog import workload_names  # deferred: layering

    names = list(dict.fromkeys(item.strip() for item in raw.split(",") if item.strip()))
    known = frozenset(workload_names())
    unknown = [item for item in names if item not in known]
    if unknown or not names:
        raise ValueError(f"names unknown workloads {unknown}" if unknown else "names none")
    return names


_positive = _number(int, 1)
_count = _number(int, 0)
_seconds = _number(float, 0.0, strict=True)
_delay = _number(float, 0.0)


# -- the table -----------------------------------------------------------------


@dataclass(frozen=True)
class Setting:
    """One declared ``REPRO_*`` variable."""

    name: str
    parse: Callable[[str], object]
    default: object
    meaning: str
    #: ``knob`` for users; ``test hook`` and ``internal`` are not.
    role: str = "knob"


SETTINGS: dict[str, Setting] = {
    setting.name: setting
    for setting in (
        Setting("REPRO_SCALE", _number(float, 0.01), 1.0,
                "multiplier on every trace length"),
        Setting("REPRO_BENCHMARKS", _workloads, None,
                "comma list of catalog workloads to run (unset: the twelve SPEC stand-ins)"),
        Setting("REPRO_ENGINE", _engine, "auto",
                "predictor evaluation engine: auto, scalar or batch"),
        Setting("REPRO_JOBS", _jobs, 1,
                "worker processes per sweep; auto or 0 means one per CPU"),
        Setting("REPRO_RUN_DIR", str, None,
                "campaign directory every sweep checkpoints its cells into"),
        Setting("REPRO_MAX_RETRIES", _count, 2,
                "retries of a failing sweep cell before it is marked failed"),
        Setting("REPRO_CAMPAIGN_STALE_SECONDS", _seconds, 600.0,
                "age after which another host's claim may be stolen"),
        Setting("REPRO_CAMPAIGN_POLL_SECONDS", _delay, 0.2,
                "idle campaign worker poll interval in seconds"),
        Setting("REPRO_TRACE_STORE", str, None,
                "trace store directory (unset: no trace store)"),
        Setting("REPRO_TRACE_STORE_CAPACITY", _positive, 512,
                "trace store entry cap (oldest evicted first)"),
        Setting("REPRO_TRACE_CACHE", _positive, 32,
                "traces kept in each process's in-memory cache"),
        Setting("REPRO_RESULT_STORE", str, None,
                "result store directory (unset: none; repro-figures uses a private one)"),
        Setting("REPRO_RESULT_STORE_CAPACITY", _positive, 65536,
                "result store entry cap (oldest evicted first)"),
        Setting("REPRO_PROFILE", _flag, False,
                "on/off: collect metrics and per-branch attribution"),
        Setting("REPRO_VERBOSE", _flag, False,
                "on/off: mirror span open/close lines on stderr"),
        Setting("REPRO_LOG", str, None,
                "JSONL file receiving structured run events"),
        Setting("REPRO_SERVICE_DIR", str, None,
                "repro-serve data directory (unset: service-data)"),
        Setting("REPRO_SERVICE_WORKERS", _positive, 2,
                "repro-serve campaign workers"),
        Setting("REPRO_SERVICE_MAX_PENDING", _positive, 64,
                "jobs queued or running before a submission gets 429"),
        Setting("REPRO_SERVICE_BODY_LIMIT", _positive, 1 << 20,
                "request body cap in bytes (413 beyond it)"),
        Setting("REPRO_SERVICE_REQUEST_TIMEOUT", _seconds, 10.0,
                "seconds a connection may idle mid-request"),
        Setting("REPRO_SERVICE_MAX_WAIT", _seconds, 30.0,
                "cap on one long-poll's ?wait= seconds"),
        Setting("REPRO_SERVICE_DRAIN_TIMEOUT", _seconds, 30.0,
                "seconds the SIGTERM drain waits for in-flight work"),
        Setting("REPRO_CAMPAIGN_ABORT_AFTER", _count, 0,
                "a campaign worker raises after K cells, holding its next claim", "test hook"),
        Setting("REPRO_CAMPAIGN_FAIL_CELL", str, None,
                "cells whose key contains this text raise (the retry path)", "test hook"),
        Setting("REPRO_CAMPAIGN_FAIL_ATTEMPTS", _count, 1,
                "how many attempts of a FAIL_CELL cell raise", "test hook"),
        Setting("REPRO_CAMPAIGN_SLOW_CELL", str, None,
                "cells whose key contains this text sleep in their span", "test hook"),
        Setting("REPRO_CAMPAIGN_SLOW_SECONDS", _delay, 0.0,
                "how long a SLOW_CELL cell sleeps", "test hook"),
        Setting("REPRO_LOG_OWNER_PID", _positive, None,
                "the process that appends to REPRO_LOG itself; others write sidecars", "internal"),
    )
}


# -- reads, writes and the start-up check ---------------------------------------


def parse(name: str, raw: str):
    """``raw`` as setting ``name`` would read it (blank: the default).

    Raises ConfigurationError for an undeclared name, naming the closest
    declared one, or for a malformed value, naming the variable.
    """
    setting = SETTINGS.get(name)
    if setting is None:
        import difflib  # deferred: only the error path pays for the import

        close = difflib.get_close_matches(name, SETTINGS, n=1)
        hint = f"; did you mean {close[0]}?" if close else ""
        raise ConfigurationError(f"{name} is not a declared setting{hint}")
    raw = raw.strip()
    if not raw:
        return setting.default
    try:
        return setting.parse(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{name}={raw!r} {exc}") from None


def get(name: str):
    """Setting ``name`` from the environment as it is now."""
    return parse(name, os.environ.get(name, ""))


def _checked(name: str, value: object) -> str | None:
    """``value`` as the environment would hold it, once it parses."""
    if value is None:
        return None
    parse(name, str(value))
    return str(value)


def _write(name: str, raw: str | None) -> None:
    if raw is None:
        os.environ.pop(name, None)
    else:
        os.environ[name] = raw


def set(name: str, value: object) -> None:  # noqa: A001 - the table's writer
    """Validate ``value`` for setting ``name``, then write it (``None``
    unsets it)."""
    _write(name, _checked(name, value))


@contextmanager
def applied(values: Mapping[str, object]) -> Iterator[None]:
    """Set ``values`` for the block, then restore the previous values.
    Every value is validated before any is written."""
    checked = {name: _checked(name, value) for name, value in values.items()}
    saved = {name: os.environ.get(name) for name in checked}
    try:
        for name, raw in checked.items():
            _write(name, raw)
        yield
    finally:
        for name, raw in saved.items():
            _write(name, raw)


def check_environment(values: Mapping[str, object] | None = None) -> None:
    """Refuse any undeclared ``REPRO_*`` name and parse every declared
    setting that is set, and ``values`` (settings about to be applied).
    Scans the environment: entry points call it once, never a reader."""
    for name, raw in os.environ.items():
        if name.startswith("REPRO_"):
            parse(name, raw)
    for name, value in (values or {}).items():
        _checked(name, value)


def check_at_start(prog: str, values: Mapping[str, object] | None = None) -> None:
    """:func:`check_environment` for a console entry point: a problem is
    one line on stderr and exit status 2."""
    try:
        check_environment(values)
    except ConfigurationError as exc:
        print(f"{prog}: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
