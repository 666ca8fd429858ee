"""Trace serialization: save/load dynamic traces as flat ``.trace`` files.

Synthetic traces are cheap to regenerate, but serialized traces make
experiments portable (share the exact workload with a colleague, pin a
trace in a regression suite, or feed externally-captured branch traces into
the harness).  A trace is a flat set of numpy columns
(:data:`~repro.workloads.trace.COLUMN_ORDER`):

* per-block columns: ``pc``, ``instructions``, ``branch_kind``,
  ``branch_pc``, ``taken``, ``target``;
* memory addresses flattened into ``loads`` / ``stores`` with CSR-style
  ``load_offsets`` / ``store_offsets`` index arrays (block *i* owns
  ``loads[load_offsets[i]:load_offsets[i+1]]``).

A file (format version 3) is those columns' raw bytes behind a small
header, so a load is one read plus views, with nothing to inflate::

    MAGIC (8 bytes) | header length (uint32 LE) | JSON header | columns

The JSON header holds the format version, the trace name, a sha256
``checksum`` over the name and every column (:func:`columns_checksum`) and
each column's dtype and shape in :data:`COLUMN_ORDER`; it is padded with
spaces so every column starts on an 8-byte boundary, and each column is
zero-padded to the next one.  :func:`load_columns` checks the magic, the
version, that the file is exactly as long as the header declares, the
padding and the checksum, so a truncated, extended or bit-flipped file is
detected at load time instead of silently corrupting an experiment.  The
loaded columns are read-only views of the one buffer read from disk.

The column codec (:func:`save_columns` / :func:`load_columns`) is shared
with the content-addressed trace store (:mod:`repro.workloads.store`).
Writes are atomic (tmp file + rename) so a killed writer never leaves a
truncated file under the final name.

Round-tripping is exact: ``load_trace(save_trace(t))`` has the name and
every column of ``t``, byte for byte (verified by test and by the checksum
of the full column set).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from repro.common.atomic import atomic_path
from repro.common.errors import TraceError
from repro.workloads.trace import COLUMN_ORDER, BranchKind, ColumnarTrace

#: v3: one flat file of raw columns behind a JSON header.  v2 was a
#: compressed ``.npz`` archive and v1 predates the checksum; both are
#: refused rather than read.
FORMAT_VERSION = 3

#: Filename suffix of a serialized trace.
SUFFIX = ".trace"

#: First bytes of every trace file.
MAGIC = b"REPROTRC"

#: The header length that follows the magic.
HEADER_LENGTH = struct.Struct("<I")

#: Every column starts at a multiple of this many bytes into the file.
ALIGN = 8

#: First bytes of a zip archive, i.e. of a format-2 ``.npz`` trace.
_ZIP_MAGIC = b"PK\x03\x04"

#: Column dtype kinds a trace file may declare: bool, signed, unsigned.
_COLUMN_KINDS = "biu"

def columns_checksum(name: str, columns: dict[str, np.ndarray]) -> str:
    """sha256 over the trace name plus every column's dtype/shape/bytes."""
    digest = hashlib.sha256()
    digest.update(name.encode("utf-8"))
    for key in COLUMN_ORDER:
        array = np.ascontiguousarray(columns[key])
        digest.update(key.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array)
    return digest.hexdigest()


def _padding(size: int) -> int:
    return -size % ALIGN


def save_columns(path: str | Path, name: str, columns: dict[str, np.ndarray]) -> Path:
    """Atomically write one columnar trace to ``path`` (``.trace`` appended
    if missing); the embedded checksum covers every column."""
    path = Path(path)
    if path.suffix != SUFFIX:
        path = path.with_suffix(path.suffix + SUFFIX)
    arrays = [np.ascontiguousarray(columns[key]) for key in COLUMN_ORDER]
    header = json.dumps(
        {
            "version": FORMAT_VERSION,
            "name": name,
            "checksum": columns_checksum(name, columns),
            "columns": [
                [key, array.dtype.str, list(array.shape)]
                for key, array in zip(COLUMN_ORDER, arrays)
            ],
        },
        separators=(",", ":"),
    ).encode()
    header += b" " * _padding(len(MAGIC) + HEADER_LENGTH.size + len(header))
    with atomic_path(path) as tmp:
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            handle.write(HEADER_LENGTH.pack(len(header)))
            handle.write(header)
            for array in arrays:
                handle.write(array)
                handle.write(bytes(_padding(array.nbytes)))
    return path


def _read_header(data: bytes, path: Path) -> tuple[dict, int]:
    """The validated JSON header and the offset of the first column."""
    if not data.startswith(MAGIC):
        if data.startswith(_ZIP_MAGIC):
            raise TraceError(
                f"unsupported trace format in {path}: a zip (.npz) archive, "
                f"the layout of format version 2 and older; this build reads "
                f"only version {FORMAT_VERSION} (regenerate the trace)"
            )
        raise TraceError(f"not a trace file: {path} (bad magic)")
    start = len(MAGIC) + HEADER_LENGTH.size
    if len(data) < start:
        raise TraceError(f"truncated trace header in {path}")
    (length,) = HEADER_LENGTH.unpack_from(data, len(MAGIC))
    if start + length > len(data):
        raise TraceError(f"truncated trace header in {path}")
    try:
        header = json.loads(data[start : start + length])
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise TraceError(f"corrupt trace header in {path}: {exc}") from None
    if not isinstance(header, dict):
        raise TraceError(f"corrupt trace header in {path}: not an object")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise TraceError(
            f"trace format version {version} unsupported "
            f"(this build reads version {FORMAT_VERSION})"
        )
    layout = header.get("columns")
    if (
        not isinstance(header.get("name"), str)
        or not isinstance(header.get("checksum"), str)
        or not isinstance(layout, list)
        or [entry[0] if isinstance(entry, list) and entry else None for entry in layout]
        != list(COLUMN_ORDER)
    ):
        raise TraceError(f"malformed trace header in {path}")
    return header, start + length


def _column_spec(entry: list, path: Path) -> tuple[np.dtype, tuple[int, ...]]:
    """One header column entry ``[name, dtype, shape]``, validated."""
    try:
        _, dtype_str, shape = entry
        dtype = np.dtype(dtype_str)
    except (TypeError, ValueError):
        raise TraceError(f"malformed column {entry!r} in trace header of {path}") from None
    if (
        dtype.kind not in _COLUMN_KINDS
        or not isinstance(shape, list)
        or not all(type(n) is int and n >= 0 for n in shape)
    ):
        raise TraceError(f"malformed column {entry!r} in trace header of {path}")
    return dtype, tuple(shape)


def load_columns(path: str | Path) -> tuple[str, dict[str, np.ndarray]]:
    """Read and verify a columnar trace written by :func:`save_columns`.

    The file is read in one call and the columns come back as read-only
    views of that buffer, so a trace shared through the in-process cache
    cannot be changed by any consumer.  Raises :class:`TraceError` on
    anything untrustworthy: missing file, bad magic (including a
    format-2 ``.npz``), unknown format version, malformed header, a file
    shorter or longer than its header declares, or a checksum mismatch
    (bit rot / torn write).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise TraceError(f"trace file not found: {path}") from None
    except OSError as exc:
        raise TraceError(f"unreadable trace file {path}: {exc}") from None
    header, offset = _read_header(data, path)
    columns = {}
    for entry in header["columns"]:
        dtype, shape = _column_spec(entry, path)
        count = math.prod(shape)
        end = offset + count * dtype.itemsize
        pad = _padding(end - offset)
        if end + pad > len(data):
            raise TraceError(f"truncated trace file {path}: shorter than its header declares")
        if data[end : end + pad] != bytes(pad):
            raise TraceError(f"corrupt trace file {path}: nonzero column padding")
        columns[entry[0]] = np.frombuffer(
            data, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
        offset = end + pad
    if offset != len(data):
        raise TraceError(
            f"corrupt trace file {path}: {len(data) - offset} trailing bytes "
            f"after the last column"
        )
    name = header["name"]
    if columns_checksum(name, columns) != header["checksum"]:
        raise TraceError(f"checksum mismatch in trace file {path} (corrupt entry)")
    return name, columns


def save_trace(trace: ColumnarTrace, path: str | Path) -> Path:
    """Write ``trace`` to ``path`` (``.trace`` appended if missing)."""
    return save_columns(path, trace.name, trace.columns())


def load_trace(path: str | Path) -> ColumnarTrace:
    """Read a trace written by :func:`save_trace`."""
    name, columns = load_columns(path)
    return ColumnarTrace(name, **columns)


def read_branch_trace(
    path: str | Path,
    name: str | None = None,
    instructions_per_branch: int = 6,
) -> ColumnarTrace:
    """Import a plain-text conditional-branch trace.

    Accepts the format branch-trace tools commonly emit: one branch per
    line, ``<pc> <outcome>``, where ``pc`` is decimal or ``0x``-hex and
    ``outcome`` is ``T``/``N``, ``1``/``0``, or ``taken``/``not-taken``
    (case-insensitive).  Blank lines and ``#`` comments are skipped.

    Since such traces carry no non-branch instructions, each branch becomes
    one fetch block of ``instructions_per_branch`` instructions (the
    SPECint-like density used throughout this package); targets are
    synthesized as short forward/backward hops so BTB behaviour stays
    sane.  The result drives every accuracy experiment directly and the
    cycle simulator approximately.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"branch-trace file not found: {path}")
    if instructions_per_branch < 1:
        raise TraceError("instructions_per_branch must be >= 1")
    taken_words = {"t", "1", "taken", "true"}
    not_taken_words = {"n", "0", "not-taken", "nottaken", "false"}
    pcs: list[int] = []
    takens: list[bool] = []
    for line_number, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TraceError(f"{path}:{line_number}: expected '<pc> <outcome>', got {raw!r}")
        try:
            pc = int(parts[0], 0)
        except ValueError:
            raise TraceError(f"{path}:{line_number}: bad pc {parts[0]!r}") from None
        if not 0 <= pc < 1 << 62:
            raise TraceError(f"{path}:{line_number}: pc {parts[0]!r} out of range")
        outcome = parts[1].lower()
        if outcome in taken_words:
            takens.append(True)
        elif outcome in not_taken_words:
            takens.append(False)
        else:
            raise TraceError(f"{path}:{line_number}: bad outcome {parts[1]!r}")
        pcs.append(pc)
    if not pcs:
        raise TraceError(f"{path} contains no branches")
    branch_pc = np.array(pcs, dtype=np.int64)
    taken = np.array(takens, dtype=np.bool_)
    count = len(pcs)
    no_addresses = np.zeros(0, dtype=np.int64)
    no_offsets = np.zeros(count + 1, dtype=np.int64)
    return ColumnarTrace(
        name or path.stem,
        pc=branch_pc - (instructions_per_branch - 1) * 4,
        instructions=np.full(count, instructions_per_branch, dtype=np.int32),
        branch_kind=np.full(count, BranchKind.CONDITIONAL, dtype=np.int8),
        branch_pc=branch_pc,
        taken=taken,
        target=np.where(taken, branch_pc - 32, branch_pc + 4),  # synthetic backward hop
        loads=no_addresses,
        stores=no_addresses,
        load_offsets=no_offsets,
        store_offsets=no_offsets,
    )
