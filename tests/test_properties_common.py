"""Hypothesis property tests for the ``repro.common`` primitives.

These are the invariants the batch kernels rely on, stated directly against
the scalar implementations:

* saturating counters never leave ``[0, 2**bits - 1]`` under any update
  sequence, and the threshold splits the range in half;
* a history register holds exactly ``length`` bits under arbitrary pushes
  (old outcomes age out, the packed value never exceeds ``mask(length)``);
* XOR folding is length-preserving (output fits ``out_width`` bits),
  deterministic, and the identity when no folding is needed;
* the C twins of these primitives, the index rules of
  :func:`repro.native.rule` as :func:`repro.native.indices` forms them
  (the fold, skew and loop-tag rules, and a :class:`repro.native.History`
  carried across calls, from any starting value), agree with the scalar
  ``fold``/``skew_index``/loop tag, ``HistoryRegister`` and
  ``LocalHistoryTable`` on every input;
* the batch engine's per-branch cores in :mod:`repro.native` match their
  plain references: ``counter_replay`` a per-event saturating-counter loop
  (with and without an update delay), ``chooser_replay`` a loop that
  trains only where the votes disagree.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.common.bits import fold, mask
from repro.common.counters import CounterTable
from repro.common.history import HistoryRegister, LocalHistoryTable
from repro.predictors.gskew import skew_index
from repro.predictors.loop import LoopPredictor

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


# -- the cores' index rules agree with the scalar primitives ---------------------


def split_indices(rule, pcs, takens, history, split):
    """:func:`repro.native.indices` over a stream split across two calls
    at ``split``, ``history`` carried from the first to the second."""
    pcs = np.asarray(pcs, dtype=np.int64)
    takens = np.asarray(takens, dtype=bool)
    first = native.indices(pcs[:split], takens[:split], rule, history)
    second = native.indices(pcs[split:], takens[split:], rule, history)
    return np.concatenate([first, second]).tolist()


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.integers(0, (1 << 32) - 1), max_size=50),
    out_width=st.integers(1, 16),
)
def test_fold_bits_matches_scalar_fold(values, out_width):
    """The FOLD rule over a 32-bit register holding each value equals the
    scalar ``fold``."""
    rule = native.rule(native.FOLD, out_width, 32)
    got = [native.indices(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool), rule,
                          native.History(32, value))[0] for value in values]
    assert got == [fold(v, 32, out_width) for v in values]


@settings(max_examples=150, deadline=None)
@given(
    outcomes=st.lists(st.booleans(), max_size=100),
    length=st.integers(0, 63),
    split=st.integers(0, 100),
)
def test_packed_history_matches_history_register(outcomes, length, split):
    """The register before each branch (the identity fold of ``length``
    bits), carried across a split at any point, equals pushing through a
    HistoryRegister, and so does the register left after the stream."""
    register = HistoryRegister(length)
    expected = []
    for taken in outcomes:
        expected.append(register.value)
        register.push(taken)
    history = native.History(length)
    rule = native.rule(native.FOLD, length, length)
    pcs = np.zeros(len(outcomes), dtype=np.int64)
    assert split_indices(rule, pcs, outcomes, history, min(split, len(outcomes))) == expected
    assert history.value == register.value


#: PCs with bits 30 and above set as often as not.
PCS = st.integers(0, (1 << 44) - 1)


@settings(max_examples=150, deadline=None)
@given(
    stream=st.lists(st.tuples(PCS, st.booleans()), max_size=60),
    width=st.integers(1, 21),
    length=st.integers(0, 63),
    bank=st.integers(0, 2),
    start=st.integers(0, (1 << 63) - 1),
    split=st.integers(0, 60),
)
def test_skew_bit_ops_match_scalar(stream, width, length, bank, start, split):
    """The SKEW rule (hash_pc, fold, rotate_left and bit_reverse in C)
    equals the scalar ``skew_index`` for every bank, PC, index width and
    history length, from any starting register; and the LOOP_TAG rule the
    loop predictor's tag (``int.bit_length`` of its entry index)."""
    pcs = [pc for pc, _ in stream]
    takens = [taken for _, taken in stream]
    register = HistoryRegister(length)
    register.restore(start)
    skews, tags = [], []
    loop = LoopPredictor(1 << width)
    for pc, taken in stream:
        skews.append(skew_index(pc, register.value, length, width, bank))
        tags.append(loop._entry(pc)[1])
        register.push(taken)
    history = native.History(length, start & mask(length))
    skew = native.rule(native.SKEW, width, length, bank)
    split = min(split, len(stream))
    assert split_indices(skew, pcs, takens, history, split) == skews
    assert history.value == register.value
    tag = native.rule(native.LOOP_TAG, width)
    assert split_indices(tag, pcs, takens, native.History(0), split) == tags


@settings(max_examples=150, deadline=None)
@given(
    value=st.integers(0, (1 << 63) - 1),
    length=st.integers(0, 63),
    outcomes=st.lists(st.booleans(), max_size=70),
)
def test_unpack_history_inverts_pack_outcomes(value, length, outcomes):
    """A register's starting value stands for the outcomes before the
    stream: every later register equals a HistoryRegister restored to that
    value and then pushed, at any length up to 63 bits."""
    register = HistoryRegister(length)
    register.restore(value)
    expected = []
    for taken in outcomes:
        expected.append(register.value)
        register.push(taken)
    history = native.History(length, value & mask(length))
    rule = native.rule(native.FOLD, length, length)
    pcs = np.zeros(len(outcomes), dtype=np.int64)
    assert split_indices(rule, pcs, outcomes, history, 0) == expected
    assert history.value == register.value


@settings(max_examples=150, deadline=None)
@given(
    stream=st.lists(st.tuples(st.integers(0, 7), st.booleans()), max_size=120),
    length=st.integers(1, 63),
    split=st.integers(0, 120),
    seed_rows=st.lists(st.integers(0, (1 << 63) - 1), min_size=4, max_size=4),
)
def test_local_histories_match_local_history_table(stream, length, split, seed_rows):
    """History rows read and shifted per branch, carried across two calls,
    equal reading then pushing each branch through a LocalHistoryTable,
    from any starting rows."""
    histories = LocalHistoryTable(4, length)
    start = np.asarray(seed_rows, dtype=np.int64) & mask(length)
    histories.restore_all(start)
    expected = []
    for slot, taken in stream:
        expected.append(histories.read(4 * slot))
        histories.push(4 * slot, taken)

    pcs = [4 * slot for slot, _ in stream]
    takens = [taken for _, taken in stream]
    rows = native.History(length, start)
    rule = native.rule(native.FOLD, length, length)
    assert split_indices(rule, pcs, takens, rows, min(split, len(stream))) == expected
    assert rows.rows.tolist() == histories.snapshot().tolist()


# -- counter cores -------------------------------------------------------------


def replay_counters(table, cells, takens, max_value):
    """The per-event saturating-counter loop the counter core mirrors: the
    table after each prefix of the writes (``states[k]`` holds the table
    after the first ``k``)."""
    table = np.asarray(table, dtype=np.int64).copy()
    states = [table.copy()]
    for cell, taken in zip(cells, takens):
        value = int(table[cell])
        table[cell] = min(value + 1, max_value) if taken else max(value - 1, 0)
        states.append(table.copy())
    return np.array(states)


@st.composite
def counter_streams(draw):
    """A counter table and a write stream (cells, directions): random
    writes, long same-direction runs on a few cells (counters saturate),
    or strict alternation on one hot cell (counters keep flipping)."""
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
    cells = np.array([c for c, _ in events], dtype=np.int64)
    takens = np.array([taken for _, taken in events], dtype=bool)
    return np.array(table, dtype=np.int16), cells, takens, max_value


def check_counter_core(table, cells, takens, max_value, threshold, delay, queued, split):
    """Two :func:`repro.native.counter_replay` calls over a stream split at
    ``split``, from the pending writes ``queued``, against
    :func:`replay_counters` over the pending writes then the stream: branch
    ``i`` reads the table after all but the last ``delay`` of the writes
    before it, and the last ``delay`` writes stay pending."""
    pending = len(queued)
    write_cells = np.array([c for c, _ in queued] + cells.tolist(), dtype=np.int64)
    write_takens = np.array([t for _, t in queued] + takens.tolist(), dtype=bool)
    states = replay_counters(table, write_cells, write_takens, max_value)
    visible = np.maximum(np.arange(len(cells)) + pending - delay, 0)
    expected = states[visible, cells] >= threshold

    work = table.copy()
    queue = (np.zeros(delay, dtype=np.int64), np.zeros(delay, dtype=bool))
    queue[0][:pending] = write_cells[:pending]
    queue[1][:pending] = write_takens[:pending]
    # Each branch's cell is its word address: the PC rule over 4 bits.
    pcs, rule, history = 4 * cells, native.rule(native.PC, 4), native.History(0)
    first, held = native.counter_replay(
        pcs[:split], takens[:split], rule, history, work, threshold, max_value, queue, pending
    )
    second, held = native.counter_replay(
        pcs[split:], takens[split:], rule, history, work, threshold, max_value, queue, held
    )
    assert np.concatenate([first, second]).tolist() == expected.tolist()
    applied = max(len(write_cells) - delay, 0)
    assert work.tolist() == states[applied].tolist()
    assert held == len(write_cells) - applied
    assert queue[0][:held].tolist() == write_cells[applied:].tolist()
    assert queue[1][:held].tolist() == write_takens[applied:].tolist()


@settings(max_examples=300, deadline=None)
@given(stream=counter_streams(), delay=st.sampled_from([0, 1, 5]), data=st.data())
def test_counter_scan_matches_per_event_loop(stream, delay, data):
    """The counter core's votes, final table and pending queue equal a
    per-event saturating-counter loop at delays 0, 1 and 5, from any
    pending queue of up to ``delay`` writes and any threshold, with the
    stream split across two calls."""
    table, cells, takens, max_value = stream
    pending = data.draw(st.integers(0, delay))
    queued = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(table) - 1), st.booleans()),
            min_size=pending,
            max_size=pending,
        )
    )
    threshold = data.draw(st.integers(0, max_value + 1))
    split = data.draw(st.integers(0, len(cells)))
    check_counter_core(table, cells, takens, max_value, threshold, delay, queued, split)


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "cells, takens", [([], []), ([2], [True]), ([0], [False])], ids=["empty", "inc", "dec"]
)
def test_counter_scan_empty_and_single_event(bits, cells, takens):
    max_value = (1 << bits) - 1
    table = np.array([0, max_value, max_value // 2], dtype=np.int16)
    cells = np.array(cells, dtype=np.int64)
    takens = np.array(takens, dtype=bool)
    threshold = 1 << (bits - 1)
    for delay, queued in ((0, []), (1, []), (1, [(1, False)]), (5, [(2, True)] * 5)):
        for split in range(len(cells) + 1):
            check_counter_core(table, cells, takens, max_value, threshold, delay, queued, split)


@settings(max_examples=200, deadline=None)
@given(
    bits=st.integers(1, 4),
    events=st.lists(
        st.tuples(st.integers(0, 7), st.booleans(), st.booleans(), st.booleans()), max_size=120
    ),
    data=st.data(),
)
def test_chooser_replay_matches_disagreement_loop(bits, events, data):
    """Tournament's chooser core equals a loop in which every branch picks
    the global vote when its counter is at or above the threshold, and the
    counter trains toward the global vote's correctness only where the two
    votes disagree."""
    max_value = (1 << bits) - 1
    table = np.array(
        data.draw(st.lists(st.integers(0, max_value), min_size=8, max_size=8)), dtype=np.int16
    )
    threshold = data.draw(st.integers(0, max_value + 1))
    columns = list(zip(*events)) or [()] * 4
    cells = np.array(columns[0], dtype=np.int64)
    global_votes, local_votes, takens = (np.array(column, dtype=bool) for column in columns[1:])
    expected_table = table.astype(np.int64)
    expected = []
    for cell, global_vote, local_vote, taken in events:
        value = int(expected_table[cell])
        expected.append(global_vote if value >= threshold else local_vote)
        if global_vote != local_vote:
            right = global_vote == taken
            expected_table[cell] = min(value + 1, max_value) if right else max(value - 1, 0)
    work = table.copy()
    got = native.chooser_replay(
        4 * cells, takens, native.rule(native.PC, 3), native.History(0), global_votes,
        local_votes, work, threshold, max_value,
    )
    assert got.tolist() == expected
    assert work.tolist() == expected_table.tolist()
