"""Atomic file writes: tmp-file + rename, shared by every persistence layer.

POSIX ``rename(2)`` within one directory is atomic: a reader observes
either the old file or the complete new one, never a torn write.
Everything in this repo that persists state another process may read
concurrently — trace-store entries, campaign checkpoints, queue entries
and claims — funnels through these helpers, so a writer killed mid-write
can only leave a ``*.tmp.<pid>.<tid>`` dropping behind, never a truncated
artifact under the final name.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Iterator
from contextlib import contextmanager


def _staging_name(path: str) -> str:
    """A collision-free staging sibling: PID for cross-process writers,
    thread id for concurrent writers inside one process (the service
    daemon's worker threads write job state from several threads)."""
    return f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"


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


def stale_tmp_siblings(path: str | os.PathLike) -> list[str]:
    """Leftover staging files of ``path`` from writers that died mid-write."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    prefix = f"{os.path.basename(path)}.tmp."
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return [os.path.join(directory, n) for n in names if n.startswith(prefix)]
