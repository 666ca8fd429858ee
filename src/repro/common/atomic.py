"""Atomic file writes: tmp-file + rename, shared by every persistence layer.

POSIX ``rename(2)`` within one directory is atomic: a reader observes
either the old file or the complete new one, never a torn write.
Everything in this repo that persists state another process may read
concurrently — trace- and result-store entries, campaign checkpoints,
queue entries and claims — funnels through these helpers, so a writer
killed mid-write can only leave a ``*.tmp.<host>.<pid>.<tid>`` dropping
behind, never a truncated artifact under the final name.

A dropping is removed only once its writer is shown to be gone
(:func:`abandoned_staging_files`): a second writer of the same file must
not unlink the staging file a live writer is still filling, or that
writer's rename fails.
"""

from __future__ import annotations

import json
import os
import re
import socket
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager

#: This host as it appears in staging names.  Staging names are parsed
#: from the right, so dots in the host name are harmless.
HOST = re.sub(r"[^A-Za-z0-9._-]", "_", socket.gethostname())

#: A staging file whose writer cannot be checked from here (written on
#: another host, or named without a host by older code) is abandoned once
#: it is this old.  A write takes milliseconds, so an hour is far beyond
#: any live writer, even on a slow shared filesystem.
STALE_STAGING_SECONDS = 3600.0


def _staging_name(path: str) -> str:
    """A collision-free staging sibling: host and PID for cross-process
    writers (stores may be shared between hosts), thread id for
    concurrent writers inside one process (the service daemon's worker
    threads write job state from several threads)."""
    return f"{path}.tmp.{HOST}.{os.getpid()}.{threading.get_ident()}"


@contextmanager
def atomic_path(path: str | os.PathLike) -> Iterator[str]:
    """Yield a temporary sibling of ``path``; rename it into place on success.

    The temporary name embeds the writer's PID and thread id so concurrent
    writers of the same file never collide on the staging name.  On any
    error the staged file is removed and the final path is left untouched.
    """
    path = os.fspath(path)
    tmp = _staging_name(path)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str | os.PathLike, data: dict) -> None:
    """Atomically write ``data`` as pretty, key-sorted JSON."""
    with atomic_path(path) as tmp:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")


def exclusive_create_json(path: str | os.PathLike, data: dict) -> bool:
    """Atomically create ``path`` with content; False if it already exists.

    The create-or-fail primitive behind work-queue claim files: exactly one
    of any number of concurrent callers wins.  The content is staged to a
    PID-suffixed sibling first and published with ``link(2)`` — which both
    fails if the name exists (the exclusivity) and makes the complete JSON
    appear *with* the name, so no reader can ever observe an empty or torn
    claim from a live writer.  (A bare ``O_CREAT|O_EXCL`` + write is not
    enough: the name exists before the content does, and a concurrent
    reader would misread the gap as a dead writer's torn claim.)  On
    filesystems without hard links the O_EXCL file-descriptor path is the
    fallback — same exclusivity, weaker content atomicity.
    """
    path = os.fspath(path)
    tmp = _staging_name(path)
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    try:
        os.link(tmp, path)
        return True
    except FileExistsError:
        return False
    except OSError:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return True
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def pid_exited(pid: int) -> bool:
    """True when no process ``pid`` runs on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        return False  # EPERM: alive, owned by another user
    return False


def _writer_gone(staging: str, writer: str, now: float) -> bool:
    """True when the writer of ``staging`` (named ``<host>.<pid>.<tid>``
    by :func:`_staging_name`) provably no longer runs: it named this host
    and its pid has exited, or the file is older than
    :data:`STALE_STAGING_SECONDS`."""
    parts = writer.rsplit(".", 2)
    if len(parts) == 3 and parts[0] == HOST and parts[1].isdigit():
        pid = int(parts[1])
        if pid != os.getpid() and pid_exited(pid):
            return True
    try:
        return now - os.stat(staging).st_mtime > STALE_STAGING_SECONDS
    except OSError:
        return False  # already gone: its writer renamed or removed it


def abandoned_staging_files(
    directory: str | os.PathLike, target: str | None = None
) -> list[str]:
    """Staging files in ``directory`` (only those of the final name
    ``target``, when given) whose writers are gone (see
    :func:`_writer_gone`); a live writer's staging file is never listed."""
    directory = os.fspath(directory)
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    now = time.time()
    found = []
    for name in names:
        final, sep, writer = name.rpartition(".tmp.")
        if not sep or target not in (None, final):
            continue
        staging = os.path.join(directory, name)
        if _writer_gone(staging, writer, now):
            found.append(staging)
    return found


def remove_abandoned_staging_files(directory: str | os.PathLike) -> None:
    """Delete what :func:`abandoned_staging_files` lists (racing removers
    are harmless)."""
    for staging in abandoned_staging_files(directory):
        try:
            os.unlink(staging)
        except OSError:
            pass
