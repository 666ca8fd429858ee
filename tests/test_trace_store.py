"""Tests for the content-addressed on-disk trace store.

Covers the trust model (a store entry is never believed without its
checksum; corruption means regenerate-and-count, never crash or wrong
data), the cache layering under the in-process LRU, digest stability
across independent processes, and capacity eviction.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import obs
from repro.common import settings
from repro.common.errors import ConfigurationError, TraceError
from repro.workloads.io import SUFFIX, load_columns, save_trace
from repro.workloads.spec2000 import (
    clear_trace_cache,
    executor_run_count,
    get_profile,
    reset_executor_runs,
    spec2000_trace,
    warm_trace_store,
)
from repro.workloads.store import (
    ColumnarTrace,
    TraceStore,
    active_store,
    reset_store_stats,
    store_stats,
    trace_digest,
)
from tests.conftest import plant_staging_files, race_live_writer
from tests.trace_blocks import trace_from_blocks

INSTRUCTIONS = 20_000


@pytest.fixture
def store_env(tmp_path, monkeypatch):
    """A fresh store directory wired into the environment, with clean
    in-process caches and statistics on both sides of the test."""
    store_dir = tmp_path / "traces"
    monkeypatch.setenv("REPRO_TRACE_STORE", str(store_dir))
    clear_trace_cache()
    reset_store_stats()
    reset_executor_runs()
    yield store_dir
    clear_trace_cache()
    reset_store_stats()
    reset_executor_runs()


def replay(trace) -> list[tuple[int, bool]]:
    return list(trace.conditional_branches())


class TestStoreBasics:
    def test_cold_then_warm(self, store_env):
        cold = spec2000_trace("gcc", instructions=INSTRUCTIONS)
        assert isinstance(cold, ColumnarTrace)
        assert store_stats()["misses"] == 1
        assert store_stats()["writes"] == 1
        assert executor_run_count() == 1

        clear_trace_cache()
        warm = spec2000_trace("gcc", instructions=INSTRUCTIONS)
        assert isinstance(warm, ColumnarTrace)
        assert store_stats()["hits"] == 1
        assert executor_run_count() == 1  # nothing regenerated
        assert replay(warm) == replay(cold)

    def test_lru_layers_over_store(self, store_env):
        """A same-process re-request hits the LRU, not the disk."""
        spec2000_trace("gcc", instructions=INSTRUCTIONS)
        before = store_stats()
        spec2000_trace("gcc", instructions=INSTRUCTIONS)
        assert store_stats() == before

    def test_store_inactive_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        assert active_store() is None

    def test_entry_is_loadable_columns(self, store_env):
        spec2000_trace("gcc", instructions=INSTRUCTIONS)
        entries = active_store().entries()
        assert len(entries) == 1
        assert entries[0].name.startswith("gcc__")
        assert entries[0].suffix == SUFFIX
        name, columns = load_columns(entries[0])
        assert name == "gcc"
        assert columns["pc"].dtype == np.int64


class TestDigest:
    def test_digest_depends_on_every_input(self):
        profile = get_profile("gcc")
        base = trace_digest(profile, INSTRUCTIONS, 1)
        assert trace_digest(profile, INSTRUCTIONS, 2) != base
        assert trace_digest(profile, INSTRUCTIONS + 6, 1) != base
        assert trace_digest(get_profile("eon"), INSTRUCTIONS, 1) != base
        assert trace_digest(profile, INSTRUCTIONS, 1) == base

    def test_digest_stable_across_processes(self):
        """The digest is a pure function of the config — a second
        interpreter computes the identical key (no per-process hash
        randomization, dict ordering, or repr leakage)."""
        profile = get_profile("gcc")
        here = trace_digest(profile, INSTRUCTIONS, 1)
        script = (
            "from repro.workloads.spec2000 import get_profile\n"
            "from repro.workloads.store import trace_digest\n"
            f"print(trace_digest(get_profile('gcc'), {INSTRUCTIONS}, 1))\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        there = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        ).stdout.strip()
        assert there == here


class TestFaultInjection:
    """Corrupted store entries are detected, counted, and regenerated —
    results never change and nothing crashes."""

    def _entry(self, store_dir):
        entries = active_store().entries()
        assert len(entries) == 1
        return entries[0]

    def _assert_recovers(self, store_env, reference):
        clear_trace_cache()
        reset_store_stats()
        runs_before = executor_run_count()
        recovered = spec2000_trace("gcc", instructions=INSTRUCTIONS)
        stats = store_stats()
        assert stats["corrupt"] == 1
        assert stats["hits"] == 0
        assert stats["misses"] == 1
        assert stats["writes"] == 1  # entry was rewritten
        assert executor_run_count() == runs_before + 1
        assert replay(recovered) == reference
        # The rewritten entry is sound: a further warm load succeeds.
        clear_trace_cache()
        reset_store_stats()
        again = spec2000_trace("gcc", instructions=INSTRUCTIONS)
        assert store_stats()["hits"] == 1
        assert store_stats()["corrupt"] == 0
        assert replay(again) == reference

    def test_truncated_entry_regenerates(self, store_env):
        reference = replay(spec2000_trace("gcc", instructions=INSTRUCTIONS))
        path = self._entry(store_env)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        self._assert_recovers(store_env, reference)

    def test_bit_flip_regenerates(self, store_env):
        reference = replay(spec2000_trace("gcc", instructions=INSTRUCTIONS))
        path = self._entry(store_env)
        data = bytearray(path.read_bytes())
        # Flip bytes in the column region, past the header.
        for offset in (len(data) // 2, len(data) // 2 + 1, 3 * len(data) // 4):
            data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        self._assert_recovers(store_env, reference)

    def test_header_byte_flip_regenerates(self, store_env):
        reference = replay(spec2000_trace("gcc", instructions=INSTRUCTIONS))
        path = self._entry(store_env)
        data = bytearray(path.read_bytes())
        data[20] ^= 0xFF  # inside the JSON header
        path.write_bytes(bytes(data))
        self._assert_recovers(store_env, reference)

    def test_wrong_content_under_right_name_regenerates(self, store_env):
        """An intact entry holding the *wrong* trace is refused too: the
        store cross-checks the embedded trace name against the requested
        profile, so a hand-copied foreign file cannot smuggle in a wrong
        trace even though its internal checksum is self-consistent."""
        reference = replay(spec2000_trace("gcc", instructions=INSTRUCTIONS))
        gcc_entry = self._entry(store_env)
        eon = spec2000_trace("eon", instructions=INSTRUCTIONS)
        # Overwrite gcc's entry with a valid eon trace file, then drop
        # eon's own entry so only the imposter remains.
        save_trace(eon, gcc_entry)
        for entry in active_store().entries():
            if entry != gcc_entry:
                entry.unlink()
        clear_trace_cache()
        reset_store_stats()
        warm = spec2000_trace("gcc", instructions=INSTRUCTIONS)
        assert warm.name == "gcc"
        assert replay(warm) == reference
        assert store_stats()["corrupt"] == 1

    def test_corrupt_counter_reaches_obs(self, store_env, obs_enabled):
        spec2000_trace("gcc", instructions=INSTRUCTIONS)
        path = self._entry(store_env)
        path.write_bytes(b"garbage")
        clear_trace_cache()
        spec2000_trace("gcc", instructions=INSTRUCTIONS)
        assert obs_enabled.counter("trace_store.corrupt").value == 1

    def test_half_written_tmp_is_ignored_and_cleaned(self, store_env):
        reference = replay(spec2000_trace("gcc", instructions=INSTRUCTIONS))
        path = self._entry(store_env)
        dead, live = plant_staging_files(path)  # writers died mid-write
        clear_trace_cache()
        reset_store_stats()
        warm = spec2000_trace("gcc", instructions=INSTRUCTIONS)
        assert replay(warm) == reference
        assert store_stats()["hits"] == 1  # the real entry, not the tmp
        # The next process to write sweeps dead writers' droppings (a store
        # scans its directory on its first save); a writer that may still
        # run keeps its staging file.
        TraceStore(store_env).save(warm, get_profile("eon"), INSTRUCTIONS, 1)
        assert [p for p in dead if p.exists()] == []
        assert all(p.exists() for p in live)

    def test_second_writer_keeps_live_staging_file(self, tmp_path):
        """Writer A is still filling its staging file when writer B saves
        the same entry: B must leave A's file alone, so A's rename
        succeeds and the entry is sound."""
        profile = get_profile("gcc")
        trace = spec2000_trace("gcc", instructions=INSTRUCTIONS)
        reference = TraceStore(tmp_path / "ref")
        reference.save(trace, profile, INSTRUCTIONS, 1)
        content = reference.entry_path(profile, INSTRUCTIONS, 1).read_bytes()
        store = TraceStore(tmp_path / "s")
        path = store.entry_path(profile, INSTRUCTIONS, 1)
        race_live_writer(path, content, lambda: store.save(trace, profile, INSTRUCTIONS, 1))
        assert path.read_bytes() == content
        assert store.load(profile, INSTRUCTIONS, 1) is not None
        assert list(path.parent.glob(f"{path.name}.tmp.*")) == []

    def test_missing_store_file_raises_trace_error(self, tmp_path):
        with pytest.raises(TraceError):
            load_columns(tmp_path / "absent.npz")


class TestEviction:
    def test_capacity_bounds_entries(self, tmp_path):
        store = TraceStore(tmp_path / "s", capacity=2)
        for i, name in enumerate(["gcc", "eon", "gzip"]):
            trace = spec2000_trace(name, instructions=INSTRUCTIONS)
            profile = get_profile(name)
            store.save(trace, profile, INSTRUCTIONS, 1)
            # Distinct mtimes so eviction order is deterministic.
            entry = store.entry_path(profile, INSTRUCTIONS, 1)
            os.utime(entry, (1_000_000 + i, 1_000_000 + i))
        assert len(store.entries()) == 2
        # Oldest (gcc) was evicted.
        assert store.load(get_profile("gcc"), INSTRUCTIONS, 1) is None
        assert store.load(get_profile("gzip"), INSTRUCTIONS, 1) is not None

    def test_legacy_npz_entries_are_listed_and_evicted(self, tmp_path):
        """An upgraded store still lists its format-2 ``.npz`` entries, so
        they age out under the capacity bound instead of leaking."""
        store = TraceStore(tmp_path / "s", capacity=1)
        legacy = store.root / "gcc__0123456789abcdef01234567.npz"
        legacy.write_bytes(b"PK\x03\x04 an old archive")
        os.utime(legacy, (1_000_000, 1_000_000))
        assert store.entries() == [legacy]
        profile = get_profile("eon")
        store.save(spec2000_trace("eon", instructions=INSTRUCTIONS), profile, INSTRUCTIONS, 1)
        assert store.entries() == [store.entry_path(profile, INSTRUCTIONS, 1)]

    def test_capacity_env_validation(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_STORE_CAPACITY", "nope")
        with pytest.raises(ConfigurationError):
            settings.get("REPRO_TRACE_STORE_CAPACITY")
        monkeypatch.setenv("REPRO_TRACE_STORE_CAPACITY", "0")
        with pytest.raises(ConfigurationError):
            settings.get("REPRO_TRACE_STORE_CAPACITY")
        monkeypatch.setenv("REPRO_TRACE_STORE_CAPACITY", "7")
        assert settings.get("REPRO_TRACE_STORE_CAPACITY") == 7


class TestWarmHelper:
    def test_warm_requires_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        with pytest.raises(ConfigurationError):
            warm_trace_store(benchmarks=["gcc"], instruction_counts=[INSTRUCTIONS])

    def test_warm_populates_and_reports(self, store_env):
        report = warm_trace_store(
            benchmarks=["gcc", "eon"], instruction_counts=[INSTRUCTIONS]
        )
        assert report["generated"] == 2
        assert report["already_present"] == 0
        report = warm_trace_store(
            benchmarks=["gcc", "eon"], instruction_counts=[INSTRUCTIONS]
        )
        assert report["generated"] == 0
        assert report["already_present"] == 2

    def test_warm_bypasses_lru(self, store_env):
        """Prewarming must not seed the in-process LRU — forked workers
        would inherit it and never demonstrate store hits."""
        warm_trace_store(benchmarks=["gcc"], instruction_counts=[INSTRUCTIONS])
        from repro.workloads.spec2000 import trace_cache_info

        assert trace_cache_info()["entries"] == 0

    def test_warm_repairs_corrupt_entry(self, store_env):
        warm_trace_store(benchmarks=["gcc"], instruction_counts=[INSTRUCTIONS])
        entry = active_store().entries()[0]
        entry.write_bytes(b"rot")
        reset_store_stats()
        report = warm_trace_store(benchmarks=["gcc"], instruction_counts=[INSTRUCTIONS])
        assert report["generated"] == 1
        assert store_stats()["corrupt"] == 1
        clear_trace_cache()
        trace = spec2000_trace("gcc", instructions=INSTRUCTIONS)
        trace.validate()


class TestColumnarSimulation:
    def test_cycle_simulator_accepts_columnar(self, store_env, monkeypatch):
        """A trace loaded from the store drives the cycle simulator to the
        IPC of the same trace freshly generated without a store."""
        from repro.predictors.gshare import GsharePredictor
        from repro.uarch.policies import SingleCyclePolicy
        from repro.uarch.simulator import CycleSimulator

        spec2000_trace("gcc", instructions=INSTRUCTIONS)
        clear_trace_cache()
        loaded = spec2000_trace("gcc", instructions=INSTRUCTIONS)
        assert store_stats()["hits"] == 1
        monkeypatch.delenv("REPRO_TRACE_STORE")
        generated = spec2000_trace("gcc", instructions=INSTRUCTIONS)
        assert generated is not loaded

        def ipc(trace):
            policy = SingleCyclePolicy(GsharePredictor(4096))
            return CycleSimulator(policy, ilp=get_profile("gcc").ilp).run(trace).ipc

        assert ipc(loaded) == ipc(generated)

    def test_validate_catches_discontinuity(self):
        from repro.workloads.trace import Block, BranchKind

        def trace(target):
            return trace_from_blocks(
                "x",
                [
                    Block(
                        pc=0x1000,
                        instructions=4,
                        branch_kind=BranchKind.CONDITIONAL,
                        branch_pc=0x100C,
                        taken=True,
                        target=target,
                    ),
                    Block(pc=0x2000, instructions=4),
                ],
            )

        trace(0x2000).validate()
        with pytest.raises(TraceError):
            trace(0x3000).validate()  # does not match the next block
