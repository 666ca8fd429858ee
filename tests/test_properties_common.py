"""Hypothesis property tests for the ``repro.common`` primitives.

These are the invariants the batch kernels rely on, stated directly against
the scalar implementations:

* saturating counters never leave ``[0, 2**bits - 1]`` under any update
  sequence, and the threshold splits the range in half;
* a history register holds exactly ``length`` bits under arbitrary pushes
  (old outcomes age out, the packed value never exceeds ``mask(length)``);
* XOR folding is length-preserving (output fits ``out_width`` bits),
  deterministic, and the identity when no folding is needed;
* the vectorized kernel twins (:func:`repro.batch.kernels.fold_bits`,
  ``bit_reverse_bits``, ``rotate_left_bits``, ``bit_lengths``,
  :func:`repro.batch.kernels.packed_history`, ``local_histories``) agree
  with the scalar ``fold``/``bit_reverse``/``rotate_left``/``int.bit_length``
  and ``HistoryRegister``/``LocalHistoryTable`` on every input;
* the batch engine's grouping primitives match their plain references:
  :class:`repro.batch.kernels.CounterScan` (the settling scan) a per-event
  saturating-counter loop, and :func:`repro.batch.kernels.stable_order` and
  ``segment_positions`` ``np.argsort(kind="stable")``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.kernels import (
    CounterScan,
    bit_lengths,
    bit_reverse_bits,
    fold_bits,
    local_histories,
    pack_outcomes,
    packed_history,
    rotate_left_bits,
    segment_positions,
    stable_order,
    unpack_history,
)
from repro.common.bits import bit_reverse, fold, mask, rotate_left
from repro.common.counters import CounterTable
from repro.common.history import HistoryRegister, LocalHistoryTable

# -- saturating counters -------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    bits=st.integers(1, 8),
    init=st.integers(0, 255),
    updates=st.lists(st.tuples(st.integers(0, 15), st.booleans()), max_size=200),
)
def test_counters_stay_in_range(bits, init, updates):
    table = CounterTable(16, bits=bits, init=min(init, (1 << bits) - 1))
    for index, taken in updates:
        table.update(index, taken)
        value = table.value(index)
        assert 0 <= value <= table.max_value
        assert table.predict(index) == (value >= table.threshold)
        assert 0 <= table.confidence(index) <= table.threshold - 1


@settings(max_examples=100, deadline=None)
@given(bits=st.integers(1, 8), updates=st.lists(st.booleans(), max_size=300))
def test_counter_saturation_is_absorbing(bits, updates):
    """Once saturated, further same-direction updates are no-ops."""
    table = CounterTable(2, bits=bits)
    for _ in range(1 << bits):
        table.update(0, True)
    assert table.value(0) == table.max_value
    for _ in range(1 << bits):
        table.update(0, False)
    assert table.value(0) == 0
    for taken in updates:
        before = table.value(0)
        table.update(0, taken)
        assert abs(table.value(0) - before) <= 1


# -- history registers ---------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(length=st.integers(0, 40), outcomes=st.lists(st.booleans(), max_size=120))
def test_history_keeps_exactly_length_bits(length, outcomes):
    register = HistoryRegister(length)
    for taken in outcomes:
        register.push(taken)
        assert 0 <= register.value <= mask(length)
    # The register is exactly the last `length` outcomes, newest in bit 0.
    expected = 0
    for taken in outcomes[-length:] if length else ():
        expected = ((expected << 1) | int(taken)) & mask(length)
    assert register.value == expected
    if length and outcomes:
        assert register.bit(0) == outcomes[-1]


@settings(max_examples=100, deadline=None)
@given(length=st.integers(1, 40), outcomes=st.lists(st.booleans(), max_size=80))
def test_history_checkpoint_restore_roundtrip(length, outcomes):
    register = HistoryRegister(length)
    for taken in outcomes:
        register.push(taken)
    snapshot = register.checkpoint()
    register.push(True)
    register.push(False)
    register.restore(snapshot)
    assert register.value == snapshot


# -- XOR folding ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    value=st.integers(0, (1 << 48) - 1),
    in_width=st.integers(0, 48),
    out_width=st.integers(0, 32),
)
def test_fold_is_length_preserving_and_deterministic(value, in_width, out_width):
    folded = fold(value, in_width, out_width)
    assert 0 <= folded <= mask(out_width)
    assert folded == fold(value, in_width, out_width)
    # Bits above in_width never influence the result.
    assert folded == fold(value & mask(in_width), in_width, out_width)


@settings(max_examples=100, deadline=None)
@given(value=st.integers(0, (1 << 32) - 1), width=st.integers(1, 32))
def test_fold_identity_when_wide_enough(value, width):
    assert fold(value, width, width) == value & mask(width)


# -- vectorized kernels agree with the scalar primitives -----------------------


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.integers(0, (1 << 32) - 1), max_size=50),
    out_width=st.integers(1, 16),
)
def test_fold_bits_matches_scalar_fold(values, out_width):
    vectorized = fold_bits(np.asarray(values, dtype=np.int64), 32, out_width)
    assert vectorized.tolist() == [fold(v, 32, out_width) for v in values]


@settings(max_examples=150, deadline=None)
@given(
    outcomes=st.lists(st.booleans(), max_size=100),
    length=st.integers(0, 20),
    split=st.integers(0, 100),
)
def test_packed_history_matches_history_register(outcomes, length, split):
    """Chunked history packing equals pushing through a HistoryRegister,
    for any chunk split point."""
    register = HistoryRegister(length)
    expected = []
    for taken in outcomes:
        expected.append(register.value)
        register.push(taken)

    takens = np.asarray(outcomes, dtype=bool)
    split = min(split, len(outcomes))
    first = packed_history(takens[:split], length)
    second = packed_history(takens[split:], length, prefix=takens[:split])
    got = np.concatenate([first, second]).tolist()
    assert got == expected
    assert pack_outcomes(takens, length) == register.value


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.integers(0, (1 << 20) - 1), max_size=50),
    width=st.integers(1, 20),
    amount=st.integers(0, 40),
)
def test_skew_bit_ops_match_scalar(values, width, amount):
    array = np.asarray(values, dtype=np.int64)
    assert bit_reverse_bits(array, width).tolist() == [bit_reverse(v, width) for v in values]
    assert rotate_left_bits(array, amount, width).tolist() == [
        rotate_left(v, amount, width) for v in values
    ]
    assert bit_lengths(array).tolist() == [v.bit_length() for v in values]


@settings(max_examples=150, deadline=None)
@given(value=st.integers(0, (1 << 24) - 1), length=st.integers(0, 24))
def test_unpack_history_inverts_pack_outcomes(value, length):
    assert pack_outcomes(unpack_history(value, length), length) == value & mask(length)


@settings(max_examples=150, deadline=None)
@given(
    stream=st.lists(st.tuples(st.integers(0, 7), st.booleans()), max_size=120),
    length=st.integers(1, 12),
    split=st.integers(0, 120),
    seed_rows=st.lists(st.integers(0, (1 << 12) - 1), min_size=4, max_size=4),
)
def test_local_histories_match_local_history_table(stream, length, split, seed_rows):
    """Chunked per-row history packing equals reading then pushing each
    branch through a LocalHistoryTable, from any starting rows."""
    histories = LocalHistoryTable(4, length)
    start = np.asarray(seed_rows, dtype=np.int64) & mask(length)
    histories.restore_all(start)
    expected = []
    for slot, taken in stream:
        expected.append(histories.read(4 * slot))
        histories.push(4 * slot, taken)

    rows = np.asarray([slot & 3 for slot, _ in stream], dtype=np.int64)
    takens = np.asarray([taken for _, taken in stream], dtype=bool)
    split = min(split, len(stream))
    table = start.copy()
    first = local_histories(rows[:split], takens[:split], table, length)
    second = local_histories(rows[split:], takens[split:], table, length)
    assert np.concatenate([first, second]).tolist() == expected
    assert table.tolist() == histories.snapshot().tolist()


# -- grouping primitives -----------------------------------------------------


def replay_counters(table, cells, takens, max_value):
    """The per-event saturating-counter loop :class:`CounterScan` replaces:
    the state each write observed, and the table after each prefix of the
    writes (``states[k]`` holds the table after the first ``k``)."""
    table = np.asarray(table, dtype=np.int64).copy()
    before = []
    states = [table.copy()]
    for cell, taken in zip(cells, takens):
        value = int(table[cell])
        before.append(value)
        table[cell] = min(value + 1, max_value) if taken else max(value - 1, 0)
        states.append(table.copy())
    return before, np.array(states)


@st.composite
def counter_streams(draw):
    """A counter table and a write stream (cells, strictly increasing
    times, directions): random writes, long same-direction runs on a few
    cells (maps settle fast), or strict alternation on one hot cell (maps
    never settle, so some are still active in the last gather pass)."""
    bits = draw(st.integers(1, 4))
    max_value = (1 << bits) - 1
    size = draw(st.integers(1, 16))
    table = draw(st.lists(st.integers(0, max_value), min_size=size, max_size=size))
    cell = st.integers(0, size - 1)
    kind = draw(st.sampled_from(["random", "runs", "alternating"]))
    if kind == "random":
        events = draw(st.lists(st.tuples(cell, st.booleans()), max_size=120))
    elif kind == "runs":
        few = st.integers(0, min(size, 3) - 1)
        runs = draw(st.lists(st.tuples(few, st.booleans(), st.integers(1, 12)), max_size=12))
        events = [(c, taken) for c, taken, length in runs for _ in range(length)]
    else:
        hot, first = draw(cell), draw(st.booleans())
        events = [(hot, (i % 2 == 0) == first) for i in range(draw(st.integers(1, 80)))]
        for noise in draw(st.lists(st.tuples(cell, st.booleans()), max_size=20)):
            events.insert(draw(st.integers(0, len(events))), noise)
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(events), max_size=len(events)))
    cells = np.array([c for c, _ in events], dtype=np.int64)
    takens = np.array([taken for _, taken in events], dtype=bool)
    times = np.cumsum(np.array(gaps, dtype=np.int64)) - 1
    return np.array(table, dtype=np.int16), cells, times, takens, max_value


def check_counter_scan(table, cells, times, takens, max_value, through_time):
    """Every output of :class:`CounterScan` against :func:`replay_counters`."""
    before, states = replay_counters(table, cells, takens, max_value)
    scan = CounterScan(cells, times, takens, table.copy(), max_value)
    assert scan.states_before_writes().tolist() == before
    # Reads of every cell at every time up to a few past the last write.
    horizon = int(times[-1]) + 8 if len(times) else 8
    read_cells, read_times = (
        grid.ravel() for grid in np.meshgrid(np.arange(len(table)), np.arange(horizon))
    )
    for delay in (0, 1, 5):
        visible = np.searchsorted(times, read_times - delay - 1, side="right")
        expected = states[visible, read_cells]
        assert scan.sample(read_cells, read_times, delay).tolist() == expected.tolist()
    committed = table.copy()
    partial = CounterScan(cells, times, takens, committed, max_value)
    partial.commit(through_time)
    assert committed.tolist() == states[np.searchsorted(times, through_time, "right")].tolist()
    partial.commit()
    assert committed.tolist() == states[-1].tolist()
    untimed = table.copy()
    scan = CounterScan(cells, None, takens, untimed, max_value)
    assert scan.states_before_writes().tolist() == before
    scan.commit()
    assert untimed.tolist() == states[-1].tolist()


@settings(max_examples=200, deadline=None)
@given(stream=counter_streams(), through=st.integers(-1, 400))
def test_counter_scan_matches_per_event_loop(stream, through):
    """Before-states, delayed samples, partial and full commits of the
    settling scan equal a per-event saturating-counter loop."""
    check_counter_scan(*stream, through_time=through)


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "cells, takens", [([], []), ([2], [True]), ([0], [False])], ids=["empty", "inc", "dec"]
)
def test_counter_scan_empty_and_single_event(bits, cells, takens):
    max_value = (1 << bits) - 1
    table = np.array([0, max_value, max_value // 2], dtype=np.int16)
    cells = np.array(cells, dtype=np.int64)
    times = np.arange(len(cells), dtype=np.int64)
    for through_time in (-1, 0):
        check_counter_scan(table, cells, times, np.array(takens, dtype=bool), max_value, through_time)


@st.composite
def grouping_keys(draw):
    """Keys drawn from a small pool (so that many repeat, which is what
    stability is about) in one of the ranges :func:`stable_order` treats
    differently: one 16-bit pass, two passes, and the argsort fallback
    for keys of 2**32 and above or negative ones."""
    low, high = draw(
        st.sampled_from(
            [(0, 1 << 16), (0, 1 << 32), ((1 << 16) - 2, (1 << 32) - 1), (1 << 32, 1 << 62),
             (-(1 << 40), 1 << 16)]
        )
    )
    pool = draw(st.lists(st.integers(low, high), min_size=1, max_size=8))
    keys = np.array(draw(st.lists(st.sampled_from(pool), max_size=200)), dtype=np.int64)
    if len(keys) and keys.min() >= -(1 << 31) and keys.max() < 1 << 31 and draw(st.booleans()):
        keys = keys.astype(np.int32)
    return keys


@settings(max_examples=200, deadline=None)
@given(keys=grouping_keys())
def test_stable_order_and_segment_positions_match_stable_argsort(keys):
    expected = np.argsort(keys, kind="stable")
    assert stable_order(keys).tolist() == expected.tolist()
    order, position = segment_positions(keys)
    assert order.tolist() == expected.tolist()
    seen: dict[int, int] = {}
    expected_position = []
    for key in keys[expected].tolist():
        expected_position.append(seen.get(key, 0))
        seen[key] = seen.get(key, 0) + 1
    assert position.tolist() == expected_position


@pytest.mark.parametrize("keys", [[], [7] * 50, [(1 << 16) - 1] * 3 + [1 << 16], [1 << 32, 0, 1 << 32]])
def test_stable_order_edge_keys(keys):
    keys = np.array(keys, dtype=np.int64)
    assert stable_order(keys).tolist() == np.argsort(keys, kind="stable").tolist()

