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
  and ``HistoryRegister``/``LocalHistoryTable`` on every input.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.kernels import (
    bit_lengths,
    bit_reverse_bits,
    fold_bits,
    local_histories,
    pack_outcomes,
    packed_history,
    rotate_left_bits,
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
