"""The C cores' loader and argument checks (``repro.native``).

The loader builds ``cores.c`` with the system C compiler on the first call
to a core, publishes the object with its sha256, checks that checksum
before every load, and rebuilds an object that fails it.  These tests
build into their own temporary directories; the differential suites
check what the cores compute.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import native, obs
from repro.common.errors import ConfigurationError
from repro.native import loader
from repro.native.loader import Library

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC), **env},
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def published(directory: Path) -> list[str]:
    return sorted(path.name for path in directory.iterdir())


def test_cold_build_publishes_once_and_a_fresh_process_reuses_it(tmp_path, obs_enabled):
    directory = tmp_path / "cache"
    library = Library(directory)
    assert not library.loaded
    library.cdll()
    assert library.loaded
    path = library.path()
    assert published(directory) == [path.name, path.name + ".sha256"]
    checksum = (directory / (path.name + ".sha256")).read_text().strip()
    assert checksum == hashlib.sha256(path.read_bytes()).hexdigest()
    assert obs_enabled.counter("native.builds").value == 1
    builds = run_python(
        "from repro import obs; from repro.native.loader import Library; "
        f"Library({str(directory)!r}).cdll(); "
        "print(obs.counter('native.builds').value)",
        REPRO_PROFILE="1",
    )
    assert builds.strip() == "0"
    assert published(directory) == [path.name, path.name + ".sha256"]


def test_object_failing_its_checksum_is_rebuilt_before_loading(
    tmp_path, monkeypatch, obs_enabled
):
    directory = tmp_path / "cache"
    path = Library(directory).path()
    # Built in another process: this one must not have the object mapped
    # while its bytes are flipped.
    run_python(f"from repro.native.loader import Library; Library({str(directory)!r}).cdll()")
    original = path.read_bytes()
    flipped = bytearray(original)
    flipped[len(flipped) // 2] ^= 0xFF
    path.write_bytes(bytes(flipped))
    obs.reset()
    opened = []
    real_cdll = ctypes.CDLL

    def checked_cdll(name, *args, **kwargs):
        opened.append(hashlib.sha256(Path(name).read_bytes()).hexdigest())
        return real_cdll(name, *args, **kwargs)

    monkeypatch.setattr(loader.ctypes, "CDLL", checked_cdll)
    Library(directory).cdll()
    assert opened == [hashlib.sha256(original).hexdigest()]
    assert path.read_bytes() == original  # the compiler's output is deterministic
    assert obs.counter("native.builds").value == 1


def test_missing_compiler_names_the_command(tmp_path, monkeypatch):
    monkeypatch.setattr(loader, "compiler", lambda: [str(tmp_path / "no-such-cc")])
    with pytest.raises(ConfigurationError, match="no-such-cc"):
        Library(tmp_path / "cache").cdll()


def test_failing_compiler_quotes_its_stderr(tmp_path, monkeypatch):
    failing = [sys.executable, "-c", "import sys; sys.exit('cc1: bad option')"]
    monkeypatch.setattr(loader, "compiler", lambda: failing)
    with pytest.raises(ConfigurationError) as raised:
        Library(tmp_path / "cache").cdll()
    message = str(raised.value)
    assert "cc1: bad option" in message
    assert "-ffp-contract=off" in message and sys.executable in message
    assert published(tmp_path / "cache") == []  # no object, no staging file


def test_concurrent_builds_into_one_directory_all_load(tmp_path):
    directory = tmp_path / "cache"
    start = time.time() + 1.5
    code = (
        "import time; import numpy as np; "
        "from repro import native; from repro.native.loader import Library; "
        f"time.sleep(max({start} - time.time(), 0)); "
        f"cores = native.bind(Library({str(directory)!r}).cdll()); "
        "tags = np.zeros((1, 2), dtype=np.int64); fill = np.zeros(1, dtype=np.int64); "
        "hits = np.empty(2, dtype=bool); "
        "cores.lru_replay(2, np.array([64, 64]), 6, 0, 0, 2, tags, fill, hits); "
        "print(hits.tolist())"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)}
    workers = [
        subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        for _ in range(2)
    ]
    outputs = [worker.communicate(timeout=120) for worker in workers]
    for worker, (out, err) in zip(workers, outputs):
        assert worker.returncode == 0, err
        assert out.strip() == "[False, True]"
    path = Library(directory).path()
    assert published(directory) == [path.name, path.name + ".sha256"]
    checksum = (directory / (path.name + ".sha256")).read_text().strip()
    assert checksum == hashlib.sha256(path.read_bytes()).hexdigest()


def test_threads_of_one_process_build_once(tmp_path, obs_enabled):
    library = Library(tmp_path / "cache")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(library.cdll) for _ in range(8)]
            handles = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(handle is handles[0] for handle in handles)
    assert obs_enabled.counter("native.builds").value == 1


def test_read_only_package_falls_back_to_a_private_temp_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(loader.os, "access", lambda path, mode: False)
    monkeypatch.setattr(loader.tempfile, "gettempdir", lambda: str(tmp_path))
    directory = loader.default_directory()
    assert directory == tmp_path / f"repro-native-{os.getuid()}"
    assert directory.stat().st_mode & 0o777 == 0o700
    directory.chmod(0o777)  # another user could plant an object there
    with pytest.raises(ConfigurationError, match="not private"):
        loader.default_directory()


def test_importing_the_program_builds_and_loads_nothing():
    out = run_python(
        "import repro.harness.sweep, repro.service.daemon; from repro import native, obs; "
        "print(native.LIBRARY.loaded, native.bind.cache_info().currsize, "
        "obs.counter('native.builds').value)",
        REPRO_PROFILE="1",
    )
    assert out.split() == ["False", "0", "0"]


def test_wrong_arrays_raise_before_reaching_c():
    tags = np.zeros((4, 2), dtype=np.int64)
    fill = np.zeros(4, dtype=np.int64)
    addresses = np.arange(0, 64 * 16, 64, dtype=np.int64)
    for wrong in (
        addresses.astype(np.int32),  # dtype
        addresses.astype(np.float64),  # dtype
        np.arange(0, 64 * 32, 64, dtype=np.int64)[::2],  # not contiguous
    ):
        with pytest.raises(ctypes.ArgumentError):
            native.lru_replay(wrong, 6, 2, tags, fill)
    frozen = fill.copy()
    frozen.flags.writeable = False
    with pytest.raises(ctypes.ArgumentError):
        native.lru_replay(addresses, 6, 2, tags, frozen)  # state the core would write
    with pytest.raises(ctypes.ArgumentError):
        native.lru_replay(addresses, 6, 2, np.zeros((4, 4), dtype=np.int64)[:, ::2], fill)
    assert not tags.any() and not fill.any()
    with pytest.raises(ValueError):
        native.lru_replay(addresses, 6, 3, tags, fill)  # 4 sets is not 2**3
    with pytest.raises(ValueError):
        native.btb_replay(addresses, addresses[:-1], 2, tags, tags.copy(), fill)


def test_out_of_range_index_is_refused_before_any_write():
    tables = [np.ones(8, dtype=np.int16) for _ in range(3)]
    # Word address 8 under a 4-bit PC rule: one past the direction tables.
    pcs = np.array([8 * 4, 0], dtype=np.int64)
    rules = np.stack([native.rule(native.PC, 4), native.rule(native.PC, 3)])
    takens = np.ones(2, dtype=bool)
    history = native.History(3, 5)
    with pytest.raises(IndexError, match="bimode_replay"):
        native.bimode_replay(pcs, takens, rules, history, *tables, 2, 3, 2, 3)
    assert all(table.tolist() == [1] * 8 for table in tables)
    assert history.value == 5


def test_build_span_reaches_the_event_log(tmp_path, monkeypatch):
    log = tmp_path / "events.jsonl"
    monkeypatch.setenv("REPRO_LOG", str(log))
    Library(tmp_path / "cache").cdll()
    spans = [
        event
        for event in map(json.loads, log.read_text().splitlines())
        if event["event"] == "span" and event["name"] == "native.build"
    ]
    assert len(spans) == 1
    attrs = spans[0]["attrs"]
    assert "-ffp-contract=off" in attrs["command"] and "cores.c" in attrs["command"]
    assert attrs["seconds"] >= 0 and attrs["size"] > 0
    flame = subprocess.run(
        [sys.executable, "-m", "repro.obs.cli", "flame", str(log)],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": str(SRC)}, check=True,
    )
    assert "native.build" in flame.stdout


def test_counter_cores_check_their_arrays():
    """counter_replay, chooser_replay and indices: a wrong dtype, a rule of
    the wrong shape or a read-only or many-row register where a one-row
    register is written never reaches C, differing stream lengths raise
    ValueError, and an out-of-range cell, or more pending writes than the
    delay, raise IndexError, leaving the tables and histories untouched."""
    pcs = np.array([0, 3 * 4], dtype=np.int64)
    flags = np.array([True, False])
    table = np.ones(4, dtype=np.int16)
    rule = native.rule(native.PC, 2)
    history = native.History(4, 9)
    queue = (np.zeros(2, dtype=np.int64), np.zeros(2, dtype=bool))
    for wrong in (pcs.astype(np.int32), pcs.astype(np.uint64)):
        with pytest.raises(ctypes.ArgumentError):
            native.counter_replay(wrong, flags, rule, history, table, 2, 3)
        with pytest.raises(ctypes.ArgumentError):
            native.chooser_replay(wrong, flags, rule, history, flags, flags, table, 2, 3)
        with pytest.raises(ctypes.ArgumentError):
            native.indices(wrong, flags, rule, history)
    for wrong in (rule.astype(np.int32), rule[:4].copy(), rule[None, :]):
        with pytest.raises(ctypes.ArgumentError):
            native.counter_replay(pcs, flags, wrong, history, table, 2, 3)
        with pytest.raises(ctypes.ArgumentError):
            native.indices(pcs, flags, wrong, history)
    with pytest.raises(ctypes.ArgumentError):
        native.counter_replay(pcs, flags, rule, history, table.astype(np.int64), 2, 3)
    with pytest.raises(ctypes.ArgumentError):
        native.counter_replay(
            pcs, flags, rule, history, table, 2, 3, (queue[0].astype(np.int32), queue[1])
        )
    frozen = native.History(4, 9)
    frozen.rows.flags.writeable = False
    with pytest.raises(ctypes.ArgumentError):
        native.counter_replay(pcs, flags, rule, frozen, table, 2, 3)
    with pytest.raises(ctypes.ArgumentError):  # chooser_replay carries one global register
        native.chooser_replay(pcs, flags, rule, native.History(4, [0, 0]), flags, flags, table,
                              2, 3)

    with pytest.raises(ValueError):
        native.counter_replay(pcs[:1], flags, rule, history, table, 2, 3)
    with pytest.raises(ValueError):
        native.counter_replay(pcs, flags, rule, history, table, 2, 3, (queue[0], queue[1][:1]))
    with pytest.raises(ValueError):
        native.chooser_replay(pcs, flags, rule, history, flags[:1], flags, table, 2, 3)
    with pytest.raises(ValueError):
        native.indices(pcs, flags[:1], rule, history)
    assert table.tolist() == [1] * 4 and history.value == 9

    wide = native.rule(native.PC, 3)  # cells 0 to 7 on a 4-counter table
    out_of_range = np.array([4 * 4, 0], dtype=np.int64)
    with pytest.raises(IndexError, match="counter_replay"):
        native.counter_replay(out_of_range, flags, wide, history, table, 2, 3)
    with pytest.raises(IndexError, match="counter_replay"):  # a read, its write delayed
        native.counter_replay(out_of_range, flags, wide, history, table, 2, 3, queue)
    with pytest.raises(IndexError, match="counter_replay"):
        native.counter_replay(pcs, flags, rule, history, table, 2, 3, queue, pending=3)
    stale = (np.array([4, 0], dtype=np.int64), np.zeros(2, dtype=bool))
    with pytest.raises(IndexError, match="counter_replay"):
        native.counter_replay(pcs, flags, rule, history, table, 2, 3, stale, pending=1)
    with pytest.raises(IndexError, match="chooser_replay"):
        native.chooser_replay(out_of_range, flags, wide, history, flags, ~flags, table, 2, 3)
    assert table.tolist() == [1] * 4


def test_index_rules_and_histories_are_checked():
    """rule() refuses what no core can form, History a register the cores
    cannot carry, and every other core a rule table of the wrong shape, a
    mismatched weight row or an index its rules put out of range."""
    for kind, bits, *parameters in (
        (native.PC, 64),
        (native.PC, -1),
        (native.GSHARE, 3, 1),  # a parameter the kind does not take
        (native.FAST, 8, 9, 3, 9),  # more buffer bits than index bits
        (native.FAST, 8, 4, 64, 9),
        (native.FAST, 8, 4, 3, 64),
        (native.FOLD, 8, 64),
        (native.SKEW, 8, 64, 1),
        (native.SKEW, 8, 8, 3),
        (native.SKEW, 8, 8, -1),
        (native.SKEW, 0, 8, 1),  # banks 1 and 2 rotate, over at least one bit
        (native.ROW, 32, 0),
        (native.LOOP_TAG + 1, 8),
    ):
        with pytest.raises(ConfigurationError):
            native.rule(kind, bits, *parameters)
    for kind, bits, *parameters in (
        (native.PC, 63),
        (native.FAST, 8, 8, 63, 63),
        (native.FOLD, 0, 63),
        (native.SKEW, 0, 63, 0),
        (native.SKEW, 1, 0, 2),
        (native.ROW, 32, 1),
    ):
        assert native.rule(kind, bits, *parameters).tolist()[:2] == [kind, bits]
    for length, rows in ((64, 0), (-1, 0), (4, [0, 0, 0]), (4, np.zeros((2, 2)))):
        with pytest.raises(ValueError):
            native.History(length, rows)
    assert native.History(63, (1 << 63) - 1).value == (1 << 63) - 1

    pcs = np.array([0, 4], dtype=np.int64)
    # Word address 4 first: one past 4-entry tables under a 3-bit rule.
    past = np.array([4 * 4, 0], dtype=np.int64)
    flags = np.array([True, False])
    history = native.History(4)
    tables = [np.ones(4, dtype=np.int16) for _ in range(4)]
    pc2, pc3 = native.rule(native.PC, 2), native.rule(native.PC, 3)
    for core, count, args in (
        (native.bimode_replay, 2, (*tables[:3], 2, 3, 2, 3)),
        (native.egskew_replay, 3, (tables[:3], 2, 3)),
        (native.twobc_gskew_replay, 4, (tables, 2, 3)),
    ):
        with pytest.raises(ctypes.ArgumentError):
            core(pcs, flags, np.stack([pc2] * (count - 1)), history, *args)
        with pytest.raises(IndexError, match=core.__name__):
            core(past, flags, np.stack([pc3] * count), history, *args)
    entries = np.zeros((4, 5), dtype=np.int64)
    with pytest.raises(ctypes.ArgumentError):
        native.loop_replay(pcs, flags, np.stack([pc2] * 3), entries, 2, 1023)
    with pytest.raises(IndexError, match="loop_replay"):
        native.loop_replay(past, flags, np.stack([pc3, native.rule(native.LOOP_TAG, 3)]),
                           entries, 2, 1023)
    # Four rows at the front of eight zeros: a row read one past the end
    # would find a valid packed state rather than fail.
    state = np.zeros(8, dtype=np.int64)[:4]
    with pytest.raises(IndexError, match="selection_replay"):
        native.selection_replay(past, pc3, np.zeros(2, dtype=np.int64), state,
                                np.zeros(64, dtype=np.uint32), 2)
    weights = np.zeros((3, 1 + 4 + 2), dtype=np.int32)
    local = native.History(2, [0, 0])
    row = native.rule(native.ROW, 32, 4)  # rows 0 to 3 of a 3-row table
    with pytest.raises(ValueError):
        native.perceptron_train(pcs, flags, row, history, native.History(3, [0, 0]), weights,
                                30, -128, 127)
    with pytest.raises(IndexError, match="perceptron_train"):
        native.perceptron_train(np.array([3 * 4, 0], dtype=np.int64), flags, row, history,
                                local, weights, 30, -128, 127)
    assert all(table.tolist() == [1] * 4 for table in tables)
    assert not entries.any() and not state.any() and not weights.any()
    assert history.value == 0 and not local.rows.any()
