"""Build, cache, check and load the C cores of ``cores.c``.

Nothing is built or loaded at import: the first call to a core asks
:meth:`Library.cdll`, which finds the shared object already built or
builds it, and loads it.  A lock makes concurrent threads (the service's
workers) build it once.

* **Name.**  The object is named by the sha256 of the source, the
  compiler command, the flags and ``platform.machine()``, so changing any
  of them builds a new object beside the old one.
* **Place.**  ``__pycache__/`` beside this package, like bytecode; when
  the package directory is read-only, a per-user directory under the
  system temp directory.
* **Publishing.**  The compiler writes a staging file, published with its
  sha256 through :func:`repro.common.atomic.atomic_path`, so processes
  that build into one directory at once each publish a complete object.
* **Checking.**  The object's sha256 must equal its published checksum
  before ``ctypes.CDLL`` opens it; on a mismatch the object is deleted and
  built again.

A build runs inside a ``native.build`` span (command, seconds, object
size) and counts ``native.builds`` when profiling.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import stat
import subprocess
import sysconfig
import tempfile
import threading
import time
from pathlib import Path

from repro import obs
from repro.common.atomic import atomic_path, remove_abandoned_staging_files
from repro.common.errors import ConfigurationError

SOURCE = Path(__file__).with_name("cores.c")

#: Never -march=native (the object may be shared between hosts) nor
#: -ffast-math; -ffp-contract=off keeps every double operation rounded
#: on its own, as Python's float arithmetic is.
FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")
LIBRARIES = ("-lm",)

#: Builds in a row that may fail their own checksum (a concurrent builder
#: replacing the object between publish and check) before giving up.
BUILD_ATTEMPTS = 3


def compiler() -> list[str]:
    """The C compiler command: the one Python was built with (``CC``),
    else ``cc``."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def default_directory() -> Path:
    """``__pycache__`` beside this package, or a per-user directory under
    the temp directory when the package directory is read-only."""
    package = Path(__file__).parent
    if os.access(package, os.W_OK):
        return package / "__pycache__"
    directory = Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    directory.mkdir(mode=0o700, exist_ok=True)
    # The directory holds code this process loads: refuse one that another
    # user owns or could write into.
    info = os.lstat(directory)
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != os.getuid()
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        raise ConfigurationError(
            f"native cache directory {directory} is not private to this user; remove it"
        )
    return directory


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Library:
    """The cores' shared object for one source file and cache directory
    (``None``: :func:`default_directory`, resolved on first use)."""

    def __init__(self, directory: Path | str | None = None, source: Path = SOURCE) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.source = Path(source)
        self._lock = threading.Lock()
        self._cdll: ctypes.CDLL | None = None

    @property
    def loaded(self) -> bool:
        """True once this process has loaded the object."""
        return self._cdll is not None

    def cdll(self) -> ctypes.CDLL:
        """The loaded object, built first when no valid one is cached."""
        if self._cdll is None:
            with self._lock:
                if self._cdll is None:
                    self._cdll = self._open()
        return self._cdll

    def path(self) -> Path:
        """Where the object for the current source, compiler, flags and
        machine lives."""
        key = hashlib.sha256()
        for part in (
            self.source.read_bytes(),
            shlex.join([*compiler(), *FLAGS, *LIBRARIES]).encode(),
            platform.machine().encode(),
        ):
            key.update(hashlib.sha256(part).digest())
        directory = self.directory if self.directory is not None else default_directory()
        return directory / f"{key.hexdigest()}.so"

    def _open(self) -> ctypes.CDLL:
        path = self.path()
        checksum = path.with_name(path.name + ".sha256")
        for _ in range(BUILD_ATTEMPTS):
            if not self._verified(path, checksum):
                self._build(path, checksum)
            if self._verified(path, checksum):
                return ctypes.CDLL(str(path))
        raise ConfigurationError(f"{path} fails its checksum after {BUILD_ATTEMPTS} builds")

    @staticmethod
    def _verified(path: Path, checksum: Path) -> bool:
        """True when ``path`` hashes to its published checksum.  A
        mismatch deletes both, so the caller builds again."""
        try:
            expected = checksum.read_text().strip()
            actual = _sha256(path)
        except FileNotFoundError:
            return False
        if actual == expected:
            return True
        for stale in (path, checksum):
            try:
                stale.unlink()
            except FileNotFoundError:
                pass
        return False

    def _build(self, path: Path, checksum: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        remove_abandoned_staging_files(path.parent)
        with atomic_path(path) as staging:
            command = [*compiler(), *FLAGS, "-o", staging, str(self.source), *LIBRARIES]
            with obs.span("native.build", command=shlex.join(command)) as span:
                started = time.perf_counter()
                try:
                    done = subprocess.run(command, capture_output=True, text=True, check=False)
                except OSError as exc:
                    raise ConfigurationError(
                        f"cannot run the C compiler: {shlex.join(command)}: {exc}"
                    ) from exc
                if done.returncode:
                    raise ConfigurationError(
                        f"the C compiler failed (exit {done.returncode}): "
                        f"{shlex.join(command)}\n{done.stderr.strip()}"
                    )
                size = os.path.getsize(staging)
                span.annotate(seconds=round(time.perf_counter() - started, 3), size=size)
            digest = _sha256(Path(staging))
        with atomic_path(checksum) as staging:
            Path(staging).write_text(digest + "\n")
        if obs.enabled():
            obs.counter("native.builds").inc()
