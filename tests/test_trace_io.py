"""Tests for trace serialization round-trips."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceError
from repro.harness.experiment import measure_accuracy
from repro.predictors.gshare import GsharePredictor
from repro.workloads.io import (
    ALIGN,
    COLUMN_ORDER,
    HEADER_LENGTH,
    MAGIC,
    SUFFIX,
    columns_checksum,
    load_columns,
    load_trace,
    read_branch_trace,
    save_trace,
)
from repro.workloads.spec2000 import get_profile
from repro.workloads.store import ColumnarTrace, TraceStore
from repro.workloads.trace import Block, BranchKind
from tests.trace_blocks import trace_from_blocks


def traces_equal(a: ColumnarTrace, b: ColumnarTrace) -> bool:
    """Same name, same block view, same bytes in every column."""
    return (
        a.name == b.name
        and a.blocks == b.blocks
        and columns_checksum(a.name, a.columns()) == columns_checksum(b.name, b.columns())
    )


class TestRoundTrip:
    def test_exact_roundtrip(self, small_trace, tmp_path):
        path = save_trace(small_trace, tmp_path / "gcc_trace")
        assert path.suffix == SUFFIX
        loaded = load_trace(path)
        assert traces_equal(small_trace, loaded)
        loaded.validate()

    def test_predictions_identical_on_loaded_trace(self, small_trace, tmp_path):
        """The reloaded trace must drive predictors to bit-identical
        results — the property that makes serialized traces pinnable."""
        loaded = load_trace(save_trace(small_trace, tmp_path / "t"))
        original = measure_accuracy(GsharePredictor(16384), small_trace)
        replayed = measure_accuracy(GsharePredictor(16384), loaded)
        assert original.mispredictions == replayed.mispredictions
        assert original.branches == replayed.branches

    def test_empty_memory_blocks(self, tmp_path):
        trace = trace_from_blocks(
            "tiny",
            [
                Block(pc=0x1000, instructions=3),
                Block(
                    pc=0x100C,
                    instructions=1,
                    branch_kind=BranchKind.CONDITIONAL,
                    branch_pc=0x100C,
                    taken=False,
                    target=0x2000,
                ),
            ],
        )
        loaded = load_trace(save_trace(trace, tmp_path / "tiny"))
        assert traces_equal(trace, loaded)

    def test_memory_addresses_preserved(self, tmp_path):
        trace = trace_from_blocks(
            "mem",
            [
                Block(pc=0x1000, instructions=4, loads=(0xA000, 0xB000), stores=(0xC000,)),
                Block(pc=0x1010, instructions=2, loads=(0xD000,)),
            ],
        )
        loaded = load_trace(save_trace(trace, tmp_path / "mem"))
        assert loaded.blocks[0].loads == (0xA000, 0xB000)
        assert loaded.blocks[0].stores == (0xC000,)
        assert loaded.blocks[1].loads == (0xD000,)


def split_file(path):
    """(header dict, header end offset, file bytes) of a saved trace."""
    data = path.read_bytes()
    (length,) = HEADER_LENGTH.unpack_from(data, len(MAGIC))
    start = len(MAGIC) + HEADER_LENGTH.size
    return json.loads(data[start : start + length]), start + length, data


def rewrite_header(path, header):
    """Re-encode ``path`` with ``header``, keeping its column bytes."""
    _, end, data = split_file(path)
    text = json.dumps(header, separators=(",", ":")).encode()
    text += b" " * (-(len(MAGIC) + HEADER_LENGTH.size + len(text)) % ALIGN)
    path.write_bytes(MAGIC + HEADER_LENGTH.pack(len(text)) + text + data[end:])


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "nope.trace")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(TraceError):
            load_trace(path)

    def test_future_version_rejected(self, tmp_path, small_trace):
        path = save_trace(small_trace, tmp_path / "v")
        header, _, _ = split_file(path)
        header["version"] = 99
        rewrite_header(path, header)
        with pytest.raises(TraceError, match="version 99 unsupported"):
            load_trace(path)

    def test_rewritten_header_round_trips(self, tmp_path, small_trace):
        """The helpers above re-encode a file exactly, so the rejections
        below are each caused by the one change a test makes."""
        path = save_trace(small_trace, tmp_path / "same")
        original = path.read_bytes()
        rewrite_header(path, split_file(path)[0])
        assert path.read_bytes() == original

    def test_truncated_header_rejected(self, tmp_path, small_trace):
        path = save_trace(small_trace, tmp_path / "t")
        _, end, data = split_file(path)
        for cut in (3, len(MAGIC) + 2, end // 2, end - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(TraceError, match="truncated|magic"):
                load_trace(path)

    def test_flipped_header_byte_rejected(self, tmp_path, small_trace):
        path = save_trace(small_trace, tmp_path / "f")
        header, end, data = split_file(path)
        start = len(MAGIC) + HEADER_LENGTH.size
        for offset in (0, len(MAGIC), start, start + (end - start) // 2, end - 1):
            flipped = bytearray(data)
            flipped[offset] ^= 0xFF
            path.write_bytes(bytes(flipped))
            with pytest.raises(TraceError):
                load_trace(path)
        # A flip that leaves the JSON well-formed is caught by the checks
        # behind it: here a shape digit, then a checksum digit.
        path.write_bytes(data)
        header["columns"][0][2][0] += 1
        rewrite_header(path, header)
        with pytest.raises(TraceError):
            load_trace(path)
        header["columns"][0][2][0] -= 1
        header["checksum"] = ("0" if header["checksum"][0] != "0" else "1") + header["checksum"][1:]
        rewrite_header(path, header)
        with pytest.raises(TraceError, match="checksum mismatch"):
            load_trace(path)

    def test_trailing_bytes_rejected(self, tmp_path, small_trace):
        path = save_trace(small_trace, tmp_path / "x")
        data = path.read_bytes()
        for extra in (b"\x00", b"\x00" * ALIGN, b"junk"):
            path.write_bytes(data + extra)
            with pytest.raises(TraceError, match="trailing bytes"):
                load_trace(path)

    def test_nonzero_column_padding_rejected(self, tmp_path):
        """Padding is outside the checksum, so it is checked on its own."""
        blocks = [Block(pc=0x1000 + 16 * i, instructions=4) for i in range(3)]
        path = save_trace(trace_from_blocks("odd", blocks), tmp_path / "p")
        _, end, data = split_file(path)
        # Three int32 instruction counts are followed by 4 padding bytes.
        pad = end + 8 * 3 + 4 * 3
        corrupted = bytearray(data)
        corrupted[pad] = 1
        path.write_bytes(bytes(corrupted))
        with pytest.raises(TraceError, match="padding"):
            load_trace(path)

    def test_v2_npz_rejected_as_unsupported_format(self, tmp_path, small_trace):
        """An entry of the previous (compressed ``.npz``) format is refused
        with a message that names it, not misread or reported as rot."""
        columns = small_trace.columns()
        path = tmp_path / "old.npz"
        with open(path, "wb") as handle:
            np.savez_compressed(
                handle,
                version=np.int64(2),
                name=np.bytes_(small_trace.name.encode()),
                checksum=np.bytes_(columns_checksum(small_trace.name, columns).encode()),
                **columns,
            )
        with pytest.raises(TraceError, match=r"unsupported trace format.*\.npz"):
            load_trace(path)

    def test_loaded_columns_are_read_only(self, tmp_path, small_trace):
        """Every trace is read-only, however it was made — generated,
        loaded from a file or the store, or imported from text — so no
        consumer can change a trace the in-process cache hands to
        everyone.  Loaded columns are views of one read-only buffer."""
        name, columns = load_columns(save_trace(small_trace, tmp_path / "ro"))
        assert list(columns) == list(COLUMN_ORDER)
        for key, column in columns.items():
            assert not column.flags.writeable, key
            assert column.flags.aligned, key
        with pytest.raises(ValueError):
            columns["taken"][0] = not columns["taken"][0]
        store = TraceStore(tmp_path / "store")
        store.save(small_trace, get_profile("gcc"), 60_000, 1)
        text = tmp_path / "branches.txt"
        text.write_text("0x401000 T\n0x401010 N\n")
        traces = {
            "generated": small_trace,
            "file": ColumnarTrace(name, **columns),
            "store": store.load(get_profile("gcc"), 60_000, 1),
            "imported": read_branch_trace(text),
        }
        for how, trace in traces.items():
            for key, column in trace.columns().items():
                assert not column.flags.writeable, (how, key)
            for array in trace.branch_arrays():
                assert not array.flags.writeable, how
            with pytest.raises(ValueError):
                trace.branch_pc[0] = 0
            with pytest.raises(ValueError):
                trace.branch_arrays()[1][0] = True


ADDRESS = st.integers(min_value=0, max_value=2**48)


@st.composite
def arbitrary_blocks(draw) -> Block:
    """Any legal fetch block: every BranchKind (incl. NONE terminators),
    empty or populated load/store lists."""
    kind = draw(st.sampled_from(list(BranchKind)))
    pc = draw(ADDRESS)
    instructions = draw(st.integers(min_value=1, max_value=40))
    loads = tuple(draw(st.lists(ADDRESS, max_size=4)))
    stores = tuple(draw(st.lists(ADDRESS, max_size=4)))
    if kind == BranchKind.NONE:
        return Block(pc=pc, instructions=instructions, loads=loads, stores=stores)
    return Block(
        pc=pc,
        instructions=instructions,
        loads=loads,
        stores=stores,
        branch_kind=kind,
        branch_pc=draw(st.integers(min_value=1, max_value=2**48)),
        taken=draw(st.booleans()),
        target=draw(ADDRESS),
    )


TRACE_NAMES = st.text(
    alphabet=st.characters(whitelist_categories=["L", "N"]), min_size=1, max_size=12
)
BLOCK_LISTS = st.lists(arbitrary_blocks(), min_size=1, max_size=60)


def assert_matches_blocks(trace: ColumnarTrace, blocks: list[Block]) -> None:
    """``trace``'s block view and its vectorized statistics agree with the
    same quantities counted block by block."""
    assert trace.blocks == blocks  # dataclass eq: every field
    branches = [(b.branch_pc, b.taken) for b in blocks if b.has_conditional]
    assert trace.instruction_count == sum(b.instructions for b in blocks)
    assert list(trace.conditional_branches()) == branches
    assert trace.conditional_branch_count == len(branches)
    assert trace.static_branch_count() == len({pc for pc, _ in branches})
    assert trace.taken_rate == (
        sum(taken for _, taken in branches) / len(branches) if branches else 0.0
    )
    pcs, takens = trace.branch_arrays()
    assert pcs.tolist() == [pc for pc, _ in branches]
    assert takens.tolist() == [taken for _, taken in branches]


class TestHypothesisRoundTrip:
    """Property-based round-trips: any legal block stream survives
    columnarization and serialization with field-exact equality."""

    @settings(max_examples=60, deadline=None)
    @given(name=TRACE_NAMES, blocks=BLOCK_LISTS)
    def test_save_load_roundtrip_exact(self, name, blocks, tmp_path_factory):
        trace = trace_from_blocks(name, blocks)
        path = save_trace(trace, tmp_path_factory.mktemp("rt") / "trace")
        loaded = load_trace(path)
        assert loaded.name == name
        assert loaded.blocks == blocks  # dataclass eq: every field

    @settings(max_examples=60, deadline=None)
    @given(name=TRACE_NAMES, blocks=BLOCK_LISTS)
    def test_columnar_roundtrip_exact(self, name, blocks):
        assert_matches_blocks(trace_from_blocks(name, blocks), blocks)

    @settings(max_examples=40, deadline=None)
    @given(name=TRACE_NAMES, blocks=BLOCK_LISTS)
    def test_zero_branch_traces_roundtrip(self, name, blocks):
        stripped = [
            Block(pc=b.pc, instructions=b.instructions, loads=b.loads, stores=b.stores)
            for b in blocks
        ]
        trace = trace_from_blocks(name, stripped)
        assert trace.conditional_branch_count == 0
        assert trace.taken_rate == 0.0
        assert_matches_blocks(trace, stripped)


class TestTextImport:
    def _write(self, tmp_path, text):
        path = tmp_path / "branches.txt"
        path.write_text(text)
        return path

    def test_parses_common_formats(self, tmp_path):
        from repro.workloads.io import read_branch_trace

        path = self._write(
            tmp_path,
            "# a comment\n"
            "0x401000 T\n"
            "0x401000 N\n"
            "4198400 1\n"
            "0x401010 taken\n"
            "\n"
            "0x401010 not-taken\n",
        )
        trace = read_branch_trace(path)
        outcomes = [taken for _, taken in trace.conditional_branches()]
        assert outcomes == [True, False, True, True, False]
        assert trace.name == "branches"

    def test_drives_predictors(self, tmp_path):
        from repro.predictors.gshare import GsharePredictor
        from repro.workloads.io import read_branch_trace

        lines = "\n".join(f"0x401000 {'T' if i % 2 == 0 else 'N'}" for i in range(200))
        trace = read_branch_trace(self._write(tmp_path, lines))
        result = measure_accuracy(GsharePredictor(1024), trace)
        assert result.branches == 200
        assert result.misprediction_rate < 0.10  # TNTN is learnable

    def test_rejects_garbage(self, tmp_path):
        from repro.workloads.io import read_branch_trace

        with pytest.raises(TraceError):
            read_branch_trace(self._write(tmp_path, "0x1000 maybe\n"))
        with pytest.raises(TraceError):
            read_branch_trace(self._write(tmp_path, "justonefield\n"))
        with pytest.raises(TraceError):
            read_branch_trace(self._write(tmp_path, "# only comments\n"))
        with pytest.raises(TraceError, match="out of range"):
            read_branch_trace(self._write(tmp_path, "0x1000 T\n-0x10 T\n"))
        with pytest.raises(TraceError, match="out of range"):
            read_branch_trace(self._write(tmp_path, f"{1 << 64:#x} T\n"))
        with pytest.raises(TraceError):
            read_branch_trace(tmp_path / "missing.txt")
