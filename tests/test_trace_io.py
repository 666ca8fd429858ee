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
    save_trace,
    trace_to_columns,
)
from repro.workloads.store import ColumnarTrace
from repro.workloads.trace import Block, BranchKind, Trace


def traces_equal(a: Trace, b: Trace) -> bool:
    if a.name != b.name or len(a) != len(b):
        return False
    return all(x == y for x, y in zip(a.blocks, b.blocks))


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
        trace = Trace(
            name="tiny",
            blocks=[
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
        trace = Trace(
            name="mem",
            blocks=[
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
        path = save_trace(Trace(name="odd", blocks=blocks), tmp_path / "p")
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
        columns = trace_to_columns(small_trace)
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
        """Loaded columns are views of one read-only buffer: no consumer
        can change a trace the in-process cache hands to everyone."""
        name, columns = load_columns(save_trace(small_trace, tmp_path / "ro"))
        assert list(columns) == list(COLUMN_ORDER)
        for key, column in columns.items():
            assert not column.flags.writeable, key
            assert column.flags.aligned, key
        with pytest.raises(ValueError):
            columns["taken"][0] = not columns["taken"][0]
        trace = ColumnarTrace(name, **columns)
        with pytest.raises(ValueError):
            trace.branch_pc[0] = 0


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


arbitrary_traces = st.builds(
    Trace,
    name=st.text(
        alphabet=st.characters(whitelist_categories=["L", "N"]), min_size=1, max_size=12
    ),
    blocks=st.lists(arbitrary_blocks(), min_size=1, max_size=60),
)


class TestHypothesisRoundTrip:
    """Property-based round-trips: any legal block stream survives
    serialization and columnarization with field-exact equality."""

    @settings(max_examples=60, deadline=None)
    @given(trace=arbitrary_traces)
    def test_save_load_roundtrip_exact(self, trace, tmp_path_factory):
        path = save_trace(trace, tmp_path_factory.mktemp("rt") / "trace")
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.blocks == trace.blocks  # dataclass eq: every field

    @settings(max_examples=60, deadline=None)
    @given(trace=arbitrary_traces)
    def test_columnar_roundtrip_exact(self, trace):
        columnar = ColumnarTrace.from_trace(trace)
        assert columnar.to_trace().blocks == trace.blocks
        assert columnar.instruction_count == trace.instruction_count
        assert list(columnar.conditional_branches()) == list(
            trace.conditional_branches()
        )
        assert columnar.conditional_branch_count == trace.conditional_branch_count
        assert columnar.static_branch_count() == trace.static_branch_count()
        assert columnar.taken_rate == trace.taken_rate
        pcs_a, takens_a = columnar.branch_arrays()
        pcs_b, takens_b = trace.branch_arrays()
        assert np.array_equal(pcs_a, pcs_b)
        assert np.array_equal(takens_a, takens_b)

    @settings(max_examples=40, deadline=None)
    @given(trace=arbitrary_traces)
    def test_zero_branch_traces_roundtrip(self, trace):
        stripped = Trace(
            name=trace.name,
            blocks=[
                Block(pc=b.pc, instructions=b.instructions, loads=b.loads, stores=b.stores)
                for b in trace.blocks
            ],
        )
        columnar = ColumnarTrace.from_trace(stripped)
        assert columnar.conditional_branch_count == 0
        assert columnar.taken_rate == 0.0
        assert list(columnar.conditional_branches()) == []
        assert columnar.to_trace().blocks == stripped.blocks


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
        with pytest.raises(TraceError):
            read_branch_trace(tmp_path / "missing.txt")
