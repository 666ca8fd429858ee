"""Tests for the content-addressed sweep-result store.

Mirrors ``test_trace_store.py`` one layer up: the trust model (no entry is
believed without its checksum, its key, and its cell identity; corruption
means recompute-and-count, never crash or wrong data), the key recipe
(every input that determines a cell's floats changes the key; dict
ordering does not), zero-work warm sweeps, capacity eviction, and digest
stability across independent processes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.common.atomic import stale_tmp_siblings
from repro.common.errors import ConfigurationError
from repro.harness import resultstore, sweep
from repro.harness.resultstore import (
    CODE_VERSION,
    IPC_MODEL_VERSION,
    ResultCell,
    ResultStore,
    accuracy_key_payload,
    accuracy_result_key,
    active_result_store,
    ipc_key_payload,
    ipc_result_key,
    reset_result_store_stats,
    result_digest,
    result_store_capacity,
    result_store_stats,
)
from repro.harness.campaign import Shard, _shard_result_key, extend_campaign
from repro.harness.sweep import accuracy_sweep, ipc_sweep
from repro.predictors import registry
from repro.uarch.config import MachineConfig
from repro.workloads.spec2000 import clear_trace_cache, reset_executor_runs
from tests.conftest import plant_staging_files, race_live_writer

INSTRUCTIONS = 20_000
ENGINE = "scalar"
WARMUP = 0.2


@pytest.fixture
def store_env(tmp_path, monkeypatch):
    """A fresh result store wired into the environment, with clean caches,
    statistics and build counters on both sides of the test."""
    store_dir = tmp_path / "results"
    monkeypatch.setenv("REPRO_RESULT_STORE", str(store_dir))
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    clear_trace_cache()
    reset_result_store_stats()
    reset_executor_runs()
    registry.reset_build_count()
    yield store_dir
    clear_trace_cache()
    reset_result_store_stats()
    reset_executor_runs()
    registry.reset_build_count()


def gshare_cells():
    return accuracy_sweep(["gshare"], [4096], benchmarks=["gcc"])


class TestStoreBasics:
    def test_cold_then_warm_zero_builds(self, store_env):
        cold = gshare_cells()
        stats = result_store_stats()
        assert stats["misses"] == 1
        assert stats["writes"] == 1
        assert registry.build_count() == 1

        registry.reset_build_count()
        clear_trace_cache()
        warm = gshare_cells()
        assert result_store_stats()["hits"] == 1
        assert registry.build_count() == 0  # the predictor was never built
        assert warm == cold  # identical floats, not just close

    def test_store_inactive_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        assert active_result_store() is None

    def test_ipc_cells_cached_too(self, store_env):
        cold = ipc_sweep(["gshare"], [4096], mode="ideal", benchmarks=["gcc"])
        assert result_store_stats()["writes"] == 1
        registry.reset_build_count()
        clear_trace_cache()
        warm = ipc_sweep(["gshare"], [4096], mode="ideal", benchmarks=["gcc"])
        assert result_store_stats()["hits"] == 1
        assert registry.build_count() == 0
        assert warm == cold

    def test_parallel_workers_share_store(self, store_env, tmp_path, monkeypatch):
        """A parallel cold run populates the store (the workers' run
        summaries record the writes); a serial warm run then hits every
        cell with zero builds."""
        from repro.obs.aggregate import counter_totals
        from repro.obs.events import read_run_events

        log = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_LOG", str(log))
        monkeypatch.setenv("REPRO_LOG_OWNER_PID", str(os.getpid()))
        run_dir = tmp_path / "run"
        cold = accuracy_sweep(
            ["gshare"], [2048, 4096], benchmarks=["gcc"], jobs=2,
            run_dir=str(run_dir),
        )
        counters = counter_totals(read_run_events(log))
        assert counters["result_store.writes"] == 2
        assert counters["result_store.hits"] == 0
        monkeypatch.delenv("REPRO_LOG")

        registry.reset_build_count()
        clear_trace_cache()
        warm = accuracy_sweep(["gshare"], [2048, 4096], benchmarks=["gcc"])
        assert result_store_stats()["hits"] == 2
        assert registry.build_count() == 0
        assert warm == cold


class TestKeys:
    def base_key(self):
        return accuracy_result_key("gcc", "gshare", 4096, INSTRUCTIONS, ENGINE, WARMUP)

    def test_key_depends_on_every_input(self):
        base = self.base_key()
        assert accuracy_result_key("eon", "gshare", 4096, INSTRUCTIONS, ENGINE, WARMUP) != base
        assert accuracy_result_key("gcc", "bimode", 4096, INSTRUCTIONS, ENGINE, WARMUP) != base
        assert accuracy_result_key("gcc", "gshare", 8192, INSTRUCTIONS, ENGINE, WARMUP) != base
        assert accuracy_result_key("gcc", "gshare", 4096, INSTRUCTIONS + 6, ENGINE, WARMUP) != base
        assert accuracy_result_key("gcc", "gshare", 4096, INSTRUCTIONS, "batch", WARMUP) != base
        assert accuracy_result_key("gcc", "gshare", 4096, INSTRUCTIONS, ENGINE, 0.3) != base
        assert accuracy_result_key("gcc", "gshare", 4096, INSTRUCTIONS, ENGINE, WARMUP, seed=2) != base
        assert self.base_key() == base

    def test_sizing_config_change_misses(self):
        """The key digests the *serialized sizing config*, not the family
        name: the same family resolving to a different config (a sizing
        rule change) is a different key, never a false hit."""
        payload = accuracy_key_payload("gcc", "gshare", 4096, INSTRUCTIONS, ENGINE, WARMUP)
        base = result_digest(payload)
        mutated = json.loads(json.dumps(payload))
        config = mutated["spec"]["config"]
        field = sorted(config)[0]
        config[field] = (config[field] + 1) if isinstance(config[field], int) else "other"
        assert result_digest(mutated) != base

    def test_ipc_key_depends_on_mode_and_machine(self):
        machine = {"issue_width": 4, "pipeline_depth": 20}
        base = ipc_result_key("gcc", "gshare", 4096, "ideal", INSTRUCTIONS, machine)
        assert ipc_result_key("gcc", "gshare", 4096, "overriding", INSTRUCTIONS, machine) != base
        deeper = dict(machine, pipeline_depth=30)
        assert ipc_result_key("gcc", "gshare", 4096, "ideal", INSTRUCTIONS, deeper) != base
        # Distinct kinds: an accuracy key can never collide with an IPC key.
        assert base != self.base_key()

    def test_key_invariant_to_machine_dict_order(self):
        forward = {"issue_width": 4, "pipeline_depth": 20, "btb_entries": 2048}
        backward = dict(reversed(list(forward.items())))
        assert list(forward) != list(backward)
        assert ipc_result_key("gcc", "gshare", 4096, "ideal", INSTRUCTIONS, forward) == \
            ipc_result_key("gcc", "gshare", 4096, "ideal", INSTRUCTIONS, backward)

    def test_key_stable_across_processes(self):
        """The key is a pure function of the config — a second interpreter
        computes the identical digest (no hash randomization, dict
        ordering, or repr leakage)."""
        here = self.base_key()
        script = (
            "from repro.harness.resultstore import accuracy_result_key\n"
            f"print(accuracy_result_key('gcc', 'gshare', 4096, {INSTRUCTIONS}, "
            f"'{ENGINE}', {WARMUP}))\n"
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


class TestIpcModelVersion:
    """IPC model version 1 simulated Table 1's caches whatever the
    machine said, and its keys and sweep configurations carried no
    ``ipc_model_version``/``model_version``.  Nothing it stored is served
    for a machine with another cache geometry."""

    SMALL_L1 = MachineConfig(l1_size=4096)

    def test_entry_under_version1_key_is_not_served(self, store_env):
        machine = asdict(self.SMALL_L1)
        payload = ipc_key_payload("gcc", "gshare", 4096, "ideal", INSTRUCTIONS, machine)
        del payload["ipc_model_version"]
        stale = {"ipc": 9.0, "misprediction_percent": 0.0, "override_rate": 0.0}
        ResultStore(store_env).save(
            result_digest(payload), ResultCell("ipc", "gcc", "gshare", 4096, "ideal"), stale
        )
        [cell] = ipc_sweep(
            ["gshare"], [4096], mode="ideal", benchmarks=["gcc"],
            instructions=INSTRUCTIONS, config=self.SMALL_L1,
        )
        assert cell.ipc != 9.0
        assert result_store_stats()["hits"] == 0

    def test_run_dir_pinned_by_version1_is_refused(self, store_env, tmp_path):
        run_dir = str(tmp_path / "run")
        shards = [Shard("ipc", "gcc", "gshare", 4096, "ideal")]
        version1 = {"instructions": INSTRUCTIONS, "machine": asdict(self.SMALL_L1)}
        extend_campaign(run_dir, shards, {"ipc": version1})
        with pytest.raises(ConfigurationError, match="different ipc-sweep configuration"):
            ipc_sweep(
                ["gshare"], [4096], mode="ideal", benchmarks=["gcc"],
                instructions=INSTRUCTIONS, config=self.SMALL_L1, run_dir=run_dir,
            )


class TestCodeVersionPin:
    """Sweep configurations pin ``code_version``: a run directory planned
    by code of another :data:`CODE_VERSION` (or by code that pinned none)
    is refused rather than resumed.  Result keys do not carry the pin."""

    ACCURACY_SHARD = Shard("accuracy", "gcc", "gshare", 4096)
    IPC_SHARD = Shard("ipc", "gcc", "gshare", 4096, "ideal")

    def test_accuracy_run_dir_pinned_without_code_version_is_refused(
        self, store_env, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        older = {"instructions": INSTRUCTIONS, "engine": ENGINE, "warmup_fraction": WARMUP}
        extend_campaign(run_dir, [self.ACCURACY_SHARD], {"accuracy": older})
        with pytest.raises(ConfigurationError, match="different accuracy-sweep configuration"):
            accuracy_sweep(
                ["gshare"], [4096], benchmarks=["gcc"], instructions=INSTRUCTIONS,
                engine=ENGINE, run_dir=run_dir,
            )

    def test_ipc_run_dir_pinned_without_code_version_is_refused(self, store_env, tmp_path):
        run_dir = str(tmp_path / "run")
        older = {
            "instructions": INSTRUCTIONS,
            "machine": asdict(MachineConfig()),
            "model_version": IPC_MODEL_VERSION,
        }
        extend_campaign(run_dir, [self.IPC_SHARD], {"ipc": older})
        with pytest.raises(ConfigurationError, match="different ipc-sweep configuration"):
            ipc_sweep(
                ["gshare"], [4096], mode="ideal", benchmarks=["gcc"],
                instructions=INSTRUCTIONS, run_dir=run_dir,
            )

    def test_run_dir_pinned_with_another_code_version_is_refused(
        self, store_env, tmp_path, monkeypatch
    ):
        run_dir = str(tmp_path / "run")
        accuracy_sweep(
            ["gshare"], [4096], benchmarks=["gcc"], instructions=INSTRUCTIONS,
            engine=ENGINE, run_dir=run_dir,
        )
        monkeypatch.setattr(resultstore, "CODE_VERSION", CODE_VERSION + 1)
        monkeypatch.setattr(sweep, "CODE_VERSION", CODE_VERSION + 1)
        with pytest.raises(ConfigurationError, match="different accuracy-sweep configuration"):
            accuracy_sweep(
                ["gshare"], [4096], benchmarks=["gcc"], instructions=INSTRUCTIONS,
                engine=ENGINE, run_dir=run_dir,
            )

    def test_pin_leaves_result_keys_alone(self):
        from repro.harness.figconfig import grid_cfg

        for shard, kind in ((self.ACCURACY_SHARD, "accuracy"), (self.IPC_SHARD, "ipc")):
            cfg = grid_cfg(kind)
            assert cfg["code_version"] == CODE_VERSION
            unpinned = {k: v for k, v in cfg.items() if k != "code_version"}
            assert _shard_result_key(shard, cfg) == _shard_result_key(shard, unpinned)


class TestFaultInjection:
    """Corrupted store entries are detected, counted, and recomputed —
    results never change and nothing crashes."""

    def _entry(self):
        entries = active_result_store().entries()
        assert len(entries) == 1
        return entries[0]

    def _assert_recovers(self, reference):
        clear_trace_cache()
        reset_result_store_stats()
        registry.reset_build_count()
        recovered = gshare_cells()
        stats = result_store_stats()
        assert stats["corrupt"] == 1
        assert stats["hits"] == 0
        assert stats["misses"] == 1
        assert stats["writes"] == 1  # the entry was recomputed and rewritten
        assert registry.build_count() == 1
        assert recovered == reference
        # The rewritten entry is sound: a further warm load succeeds.
        clear_trace_cache()
        reset_result_store_stats()
        again = gshare_cells()
        assert result_store_stats()["hits"] == 1
        assert result_store_stats()["corrupt"] == 0
        assert again == reference

    def test_truncated_entry_recomputes(self, store_env):
        reference = gshare_cells()
        path = self._entry()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        self._assert_recovers(reference)

    def test_bit_flipped_payload_recomputes(self, store_env):
        """A payload whose floats changed under an intact structure fails
        the checksum — bit rot cannot smuggle in wrong numbers."""
        reference = gshare_cells()
        path = self._entry()
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["payload"]["misprediction_percent"] += 0.5
        path.write_text(json.dumps(entry, indent=2, sort_keys=True), encoding="utf-8")
        self._assert_recovers(reference)

    def test_checksum_mismatch_recomputes(self, store_env):
        reference = gshare_cells()
        path = self._entry()
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["checksum"] = "0" * len(entry["checksum"])
        path.write_text(json.dumps(entry, indent=2, sort_keys=True), encoding="utf-8")
        self._assert_recovers(reference)

    def test_foreign_entry_under_right_name_recomputes(self, store_env):
        """An internally-consistent entry answering a *different* question
        (hand-copied under this cell's filename) is refused: the stored key
        and cell identity are both cross-checked on load."""
        reference = gshare_cells()
        gcc_entry = self._entry()
        accuracy_sweep(["gshare"], [8192], benchmarks=["gcc"])
        other = [e for e in active_result_store().entries() if e != gcc_entry]
        assert len(other) == 1
        shutil.copyfile(other[0], gcc_entry)
        other[0].unlink()
        self._assert_recovers(reference)

    def test_garbage_bytes_recompute(self, store_env):
        reference = gshare_cells()
        self._entry().write_bytes(b"garbage")
        self._assert_recovers(reference)

    def test_corrupt_counter_reaches_obs(self, store_env, obs_enabled):
        gshare_cells()
        self._entry().write_bytes(b"garbage")
        clear_trace_cache()
        gshare_cells()
        assert obs_enabled.counter("result_store.corrupt").value == 1

    def test_stale_tmp_sibling_ignored_and_cleaned(self, store_env):
        reference = gshare_cells()
        path = self._entry()
        dead, live = plant_staging_files(path)  # writers died mid-write
        clear_trace_cache()
        reset_result_store_stats()
        warm = gshare_cells()
        assert warm == reference
        assert result_store_stats()["hits"] == 1  # the real entry, not the tmp
        # The next process to write sweeps dead writers' droppings (a store
        # scans its directory on its first save); a writer that may still
        # run keeps its staging file.
        cell = ResultCell("accuracy", "gcc", "gshare", 2048)
        ResultStore(store_env).save(result_digest({"budget": 2048}), cell, {"x": 1.0})
        assert [p for p in dead if p.exists()] == []
        assert all(p.exists() for p in live)

    def test_second_writer_keeps_live_staging_file(self, tmp_path):
        """Writer A is still filling its staging file when writer B saves
        the same entry: B must leave A's file alone, so A's rename
        succeeds and the entry is sound."""
        key = result_digest({"cell": "race"})
        cell = ResultCell("accuracy", "gcc", "gshare", 4096)
        payload = {"misprediction_percent": 1.5}
        reference = ResultStore(tmp_path / "ref")
        reference.save(key, cell, payload)
        content = reference.entry_path(key, cell).read_bytes()
        store = ResultStore(tmp_path / "s")
        path = store.entry_path(key, cell)
        race_live_writer(path, content, lambda: store.save(key, cell, payload))
        assert path.read_bytes() == content
        assert store.load(key, cell) == payload
        assert stale_tmp_siblings(path) == []

    def test_probe_is_non_mutating(self, store_env):
        """Dry-run classification must not repair, delete, or count."""
        gshare_cells()
        path = self._entry()
        path.write_bytes(b"garbage")
        store = active_result_store()
        key = accuracy_result_key(
            "gcc", "gshare", 4096,
            *self._sweep_key_tail(),
        )
        cell = ResultCell("accuracy", "gcc", "gshare", 4096)
        before = result_store_stats()
        assert store.probe(key, cell) is False
        assert path.exists()  # still there for the real run to repair
        assert result_store_stats() == before

    @staticmethod
    def _sweep_key_tail():
        from repro.harness.experiment import default_engine
        from repro.harness.scale import WARMUP_FRACTION, accuracy_instructions

        return (accuracy_instructions(), default_engine(), WARMUP_FRACTION)


class TestEviction:
    def test_capacity_bounds_entries(self, tmp_path):
        reset_result_store_stats()
        store = ResultStore(tmp_path / "s", capacity=2)
        for i, budget in enumerate([2048, 4096, 8192]):
            cell = ResultCell("accuracy", "gcc", "gshare", budget)
            key = result_digest({"budget": budget})
            store.save(key, cell, {"misprediction_percent": float(i)})
            entry = store.entry_path(key, cell)
            os.utime(entry, (1_000_000 + i, 1_000_000 + i))
        assert len(store.entries()) == 2
        assert result_store_stats()["evictions"] == 1
        # Oldest (2048) was evicted.
        oldest = result_digest({"budget": 2048})
        assert store.load(oldest, ResultCell("accuracy", "gcc", "gshare", 2048)) is None

    def test_saves_scan_the_directory_only_past_capacity(self, tmp_path, monkeypatch):
        """Entries are counted by one scan on the first save; later saves
        rescan only when the count passes capacity."""
        store = ResultStore(tmp_path / "s", capacity=5)
        scans = []
        entries = ResultStore.entries
        monkeypatch.setattr(
            ResultStore, "entries", lambda self: scans.append(1) or entries(self)
        )
        for budget in range(8):
            cell = ResultCell("accuracy", "gcc", "gshare", budget)
            store.save(result_digest({"budget": budget}), cell, {"x": 1.0})
        assert len(scans) == 1 + 3  # first save, then saves 6, 7 and 8
        assert len(entries(store)) == 5

    def test_capacity_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE_CAPACITY", "nope")
        with pytest.raises(ConfigurationError):
            result_store_capacity()
        monkeypatch.setenv("REPRO_RESULT_STORE_CAPACITY", "0")
        with pytest.raises(ConfigurationError):
            result_store_capacity()
        monkeypatch.setenv("REPRO_RESULT_STORE_CAPACITY", "7")
        assert result_store_capacity() == 7


# -- property tests ------------------------------------------------------------

payload_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.booleans(),
    st.text(max_size=20),
)
payloads = st.dictionaries(
    st.text(min_size=1, max_size=20), payload_values, min_size=1, max_size=8
)


@pytest.fixture(scope="module")
def property_store(tmp_path_factory):
    """One store directory shared by every Hypothesis example (keys are
    content digests, so distinct payloads never collide)."""
    return ResultStore(tmp_path_factory.mktemp("prop-results"), capacity=100_000)


@settings(max_examples=100, deadline=None)
@given(payload=payloads)
def test_payload_round_trips_bit_identical(property_store, payload):
    """save -> load returns the exact payload: equal values *and* equal
    canonical JSON bytes (float repr round-trips exactly)."""
    key = result_digest(payload)
    cell = ResultCell("accuracy", "gcc", "gshare", 4096)
    saved = property_store.save(key, cell, payload)
    loaded = property_store.load(key, cell)
    canonical = lambda p: json.dumps(p, sort_keys=True, separators=(",", ":"))
    assert loaded == payload
    assert canonical(saved) == canonical(payload) == canonical(loaded)
    assert result_digest(loaded) == result_digest(payload)


@settings(max_examples=100, deadline=None)
@given(payload=payloads, seed=st.randoms(use_true_random=False))
def test_digest_invariant_to_dict_ordering(payload, seed):
    items = list(payload.items())
    seed.shuffle(items)
    assert result_digest(dict(items)) == result_digest(payload)


@settings(max_examples=50, deadline=None)
@given(
    family=st.sampled_from(["gshare", "bimode", "perceptron", "gshare_fast"]),
    budget_exp=st.integers(min_value=11, max_value=19),
    mode=st.sampled_from(["ideal", "overriding"]),
    benchmark=st.sampled_from(["gcc", "eon", "gzip"]),
)
def test_key_payloads_serialize_bit_identical(family, budget_exp, mode, benchmark):
    """For arbitrary family/budget/mode combinations the key payload
    survives a JSON round-trip bit-identically (same digest), and two
    independent derivations agree — the preconditions for cross-process
    cache sharing."""
    budget = 2**budget_exp
    machine = {"issue_width": 4, "pipeline_depth": 20}
    for payload in (
        accuracy_key_payload(benchmark, family, budget, INSTRUCTIONS, ENGINE, WARMUP),
        ipc_key_payload(benchmark, family, budget, mode, INSTRUCTIONS, machine),
    ):
        roundtrip = json.loads(json.dumps(payload))
        assert result_digest(roundtrip) == result_digest(payload)
    again = accuracy_key_payload(benchmark, family, budget, INSTRUCTIONS, ENGINE, WARMUP)
    assert result_digest(again) == result_digest(
        accuracy_key_payload(benchmark, family, budget, INSTRUCTIONS, ENGINE, WARMUP)
    )
