"""Trace serialization: save/load dynamic traces as compact ``.npz`` files.

Synthetic traces are cheap to regenerate, but serialized traces make
experiments portable (share the exact workload with a colleague, pin a
trace in a regression suite, or feed externally-captured branch traces into
the harness).  The format is a flat set of numpy arrays:

* per-block columns: ``pc``, ``instructions``, ``branch_kind``,
  ``branch_pc``, ``taken``, ``target``;
* memory addresses flattened into ``loads`` / ``stores`` with CSR-style
  ``load_offsets`` / ``store_offsets`` index arrays (block *i* owns
  ``loads[load_offsets[i]:load_offsets[i+1]]``);
* the trace name and a sha256 ``checksum`` over every column, so a
  truncated or bit-flipped file is detected at load time instead of
  silently corrupting an experiment.

The column codec (:func:`trace_to_columns` / :func:`blocks_from_columns` /
:func:`save_columns` / :func:`load_columns`) is shared with the
content-addressed trace store (:mod:`repro.workloads.store`), which keeps
the columns as-is instead of materializing ``Block`` objects.  Writes are
atomic (tmp file + rename) so a killed writer never leaves a truncated
file under the final name.

Round-tripping is exact: ``load_trace(save_trace(t)) == t`` field for field
(verified by test and by the checksum of the full column set).
"""

from __future__ import annotations

import hashlib
from itertools import chain
from pathlib import Path

import numpy as np

from repro.common.atomic import atomic_path
from repro.common.errors import TraceError
from repro.workloads.trace import Block, BranchKind, Trace

#: v2: per-column integrity checksum added (a v1 file predates the trace
#: store and is refused rather than trusted without one).
FORMAT_VERSION = 2

#: Column names in canonical (checksum) order.
COLUMN_ORDER = (
    "pc",
    "instructions",
    "branch_kind",
    "branch_pc",
    "taken",
    "target",
    "loads",
    "stores",
    "load_offsets",
    "store_offsets",
)


def trace_to_columns(trace: Trace) -> dict[str, np.ndarray]:
    """Flatten a block-object trace into its columnar (SoA) arrays."""
    blocks = trace.blocks
    columns = {
        "pc": np.array([b.pc for b in blocks], dtype=np.int64),
        "instructions": np.array([b.instructions for b in blocks], dtype=np.int32),
        "branch_kind": np.array([int(b.branch_kind) for b in blocks], dtype=np.int8),
        "branch_pc": np.array([b.branch_pc for b in blocks], dtype=np.int64),
        "taken": np.array([b.taken for b in blocks], dtype=np.bool_),
        "target": np.array([b.target for b in blocks], dtype=np.int64),
    }
    for name in ("loads", "stores"):
        addresses = [getattr(block, name) for block in blocks]
        offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(block_addresses) for block_addresses in addresses])
        columns[name] = np.fromiter(
            chain.from_iterable(addresses), dtype=np.int64, count=int(offsets[-1])
        )
        columns[f"{name[:-1]}_offsets"] = offsets
    return {key: columns[key] for key in COLUMN_ORDER}


def blocks_from_columns(columns: dict[str, np.ndarray]) -> list[Block]:
    """Materialize ``Block`` objects from columnar arrays (exact inverse of
    :func:`trace_to_columns`; plain Python ints/bools, like the generator
    emits)."""
    pcs = columns["pc"].tolist()
    instructions = columns["instructions"].tolist()
    kinds = columns["branch_kind"].tolist()
    branch_pcs = columns["branch_pc"].tolist()
    takens = columns["taken"].tolist()
    targets = columns["target"].tolist()
    loads = columns["loads"].tolist()
    stores = columns["stores"].tolist()
    load_offsets = columns["load_offsets"].tolist()
    store_offsets = columns["store_offsets"].tolist()
    return [
        Block(
            pc=pcs[i],
            instructions=instructions[i],
            loads=tuple(loads[load_offsets[i] : load_offsets[i + 1]]),
            stores=tuple(stores[store_offsets[i] : store_offsets[i + 1]]),
            branch_kind=BranchKind(kinds[i]),
            branch_pc=branch_pcs[i],
            taken=bool(takens[i]),
            target=targets[i],
        )
        for i in range(len(pcs))
    ]


def columns_checksum(name: str, columns: dict[str, np.ndarray]) -> str:
    """sha256 over the trace name plus every column's dtype/shape/bytes."""
    digest = hashlib.sha256()
    digest.update(name.encode("utf-8"))
    for key in COLUMN_ORDER:
        array = np.ascontiguousarray(columns[key])
        digest.update(key.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def save_columns(path: str | Path, name: str, columns: dict[str, np.ndarray]) -> Path:
    """Atomically write one columnar trace to ``path`` (``.npz`` appended
    if missing); the embedded checksum covers every column."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    with atomic_path(path) as tmp:
        # np.savez appends ``.npz`` to bare *paths*; a file handle writes
        # exactly where the atomic staging name points.
        with open(tmp, "wb") as handle:
            np.savez_compressed(
                handle,
                version=np.int64(FORMAT_VERSION),
                name=np.bytes_(name.encode()),
                checksum=np.bytes_(columns_checksum(name, columns).encode()),
                **columns,
            )
    return path


def load_columns(path: str | Path) -> tuple[str, dict[str, np.ndarray]]:
    """Read and verify a columnar trace written by :func:`save_columns`.

    Raises :class:`TraceError` on anything untrustworthy: missing file,
    truncated archive, unknown format version, missing columns, or a
    checksum mismatch (bit rot / torn write).
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    try:
        with np.load(path) as data:
            version = int(data["version"])
            if version != FORMAT_VERSION:
                raise TraceError(
                    f"trace format version {version} unsupported "
                    f"(this build reads version {FORMAT_VERSION})"
                )
            name = bytes(data["name"]).decode()
            checksum = bytes(data["checksum"]).decode()
            columns = {key: data[key] for key in COLUMN_ORDER}
    except TraceError:
        raise
    except KeyError as missing:
        raise TraceError(f"malformed trace file {path}: missing {missing}") from None
    except Exception as exc:  # truncated zip, bad header, undecodable bytes
        raise TraceError(f"corrupt trace file {path}: {exc}") from exc
    if columns_checksum(name, columns) != checksum:
        raise TraceError(f"checksum mismatch in trace file {path} (corrupt entry)")
    return name, columns


def save_trace(trace: Trace, path: str | Path) -> Path:
    """Write ``trace`` to ``path`` (``.npz`` appended if missing)."""
    return save_columns(path, trace.name, trace_to_columns(trace))


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    name, columns = load_columns(path)
    return Trace(name=name, blocks=blocks_from_columns(columns))


def read_branch_trace(
    path: str | Path,
    name: str | None = None,
    instructions_per_branch: int = 6,
) -> Trace:
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
    blocks = []
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
        outcome = parts[1].lower()
        if outcome in taken_words:
            taken = True
        elif outcome in not_taken_words:
            taken = False
        else:
            raise TraceError(f"{path}:{line_number}: bad outcome {parts[1]!r}")
        block_pc = pc - (instructions_per_branch - 1) * 4
        target = pc - 32 if taken else pc + 4  # synthetic backward hop
        blocks.append(
            Block(
                pc=block_pc,
                instructions=instructions_per_branch,
                branch_kind=BranchKind.CONDITIONAL,
                branch_pc=pc,
                taken=taken,
                target=target,
            )
        )
    if not blocks:
        raise TraceError(f"{path} contains no branches")
    return Trace(name=name or path.stem, blocks=blocks)
