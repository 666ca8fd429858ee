"""Every input the batch cores form in C equals the scalar predictor's own.

Each batch kernel hands its cores the PCs, the outcomes, its history
registers (:class:`repro.native.History`) and one index rule per table
(``kernel.rules()``).  Here, for every family, Hypothesis draws a
configuration (1 to 21 index bits, histories of 0 to 63 bits), a stream of
PCs with bits 30 and above set, outcomes, a chunk split and non-zero
starting histories; each rule's indices, formed by
:func:`repro.native.indices` as the cores form them, must equal the
scalar predictor's ``_indices``, ``index``, ``skew_index``, gshare.fast
index, loop tag or selector row, branch by branch, with the histories left
after the stream equal to the predictor's.  The perceptron's row and ±1
inputs are read off ``perceptron_train`` itself: one branch at a time from
zero weights, the row it trains becomes its outcome sign times its inputs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.batch.engine import _COMPONENT_KERNELS, KERNELS
from repro.common.bits import mask
from repro.core.bimode_fast import BiModeFastPredictor
from repro.core.gshare_fast import GshareFastPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.bimode import BiModePredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.gskew import EGskewPredictor, TwoBcGskewPredictor
from repro.predictors.local import LocalPredictor
from repro.predictors.loop import LoopPredictor
from repro.predictors.multicomponent import MultiComponentPredictor
from repro.predictors.perceptron import WEIGHT_MAX, WEIGHT_MIN, PerceptronPredictor
from repro.predictors.tournament import TournamentPredictor

#: PCs with bits 30 and above set as often as not, unaligned ones included.
PCS = st.integers(0, (1 << 44) - 1)

STREAMS = st.lists(st.tuples(PCS, st.booleans()), max_size=50)

INDEX_BITS = st.integers(1, 21)
HISTORY_BITS = st.integers(0, 63)


def start_global(register, value: int) -> None:
    """Sets a HistoryRegister to ``value``'s low bits."""
    register.restore(value)


def start_local(table, data) -> None:
    """Fills a LocalHistoryTable with drawn rows."""
    rows = data.draw(
        st.lists(
            st.integers(0, (1 << 63) - 1), min_size=table.entries, max_size=table.entries
        )
    )
    table.restore_all(np.asarray(rows, dtype=np.int64) & mask(table.length))


def global_history(predictor) -> native.History:
    return native.History(predictor.history.length, predictor.history.value)


def local_history(table) -> native.History:
    return native.History(table.length, table.snapshot())


def check(kernel, predictor, scalar_indices, histories, final_histories, stream, split):
    """Each of ``kernel``'s rules over a fresh copy of its history, split
    at ``split``, against ``scalar_indices(predictor, pc)`` taken before
    each branch of a scalar run; then each history against the state
    ``final_histories(predictor)`` returns after the run."""
    rules = kernel(predictor).rules()
    carried = histories(predictor)
    assert len(carried) == len(rules)
    expected = []
    for pc, taken in stream:
        expected.append(tuple(scalar_indices(predictor, pc)))
        predictor.predict(pc)
        predictor.update(pc, taken)
    pcs = np.array([pc for pc, _ in stream], dtype=np.int64)
    takens = np.array([taken for _, taken in stream], dtype=bool)
    split = min(split, len(stream))
    for k, (rule, history) in enumerate(zip(rules, carried)):
        first = native.indices(pcs[:split], takens[:split], rule, history)
        second = native.indices(pcs[split:], takens[split:], rule, history)
        assert np.concatenate([first, second]).tolist() == [e[k] for e in expected], k
    for history, rows in zip(carried, final_histories(predictor)):
        assert history.rows.tolist() == np.atleast_1d(rows).tolist()


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(stream=STREAMS, split=st.integers(0, 50), data=st.data())
def test_gshare_family_indices(stream, split, data):
    """bimodal, gshare and Bi-Mode: the PC, gshare and choice rules."""
    bits = data.draw(INDEX_BITS)
    start = data.draw(st.integers(0, (1 << 63) - 1))
    bimodal = BimodalPredictor(1 << bits)
    check(KERNELS["bimodal"], bimodal, lambda p, pc: (p.index(pc),),
          lambda p: [native.History(0)], lambda p: [0], stream, split)

    gshare = GsharePredictor(1 << bits, history_length=data.draw(st.integers(0, bits)))
    start_global(gshare.history, start)
    check(KERNELS["gshare"], gshare, lambda p, pc: (p.index(pc),),
          lambda p: [global_history(p)], lambda p: [p.history.value], stream, split)

    bimode = BiModePredictor(
        1 << bits, choice_entries=1 << data.draw(INDEX_BITS), history_length=bits
    )
    start_global(bimode.history, start)
    check(KERNELS["bimode"], bimode, lambda p, pc: p._indices(pc),
          lambda p: [global_history(p), global_history(p)],
          lambda p: [p.history.value] * 2, stream, split)


@SETTINGS
@given(stream=STREAMS, split=st.integers(0, 50), data=st.data())
def test_gshare_fast_indices(stream, split, data):
    """gshare.fast's and bimode.fast's line/select index over the stale and
    newest history."""
    bits = data.draw(st.integers(2, 21))
    latency = data.draw(st.integers(1, 12))
    buffer_bits = data.draw(st.integers(1, min(10, bits - 1)))
    start = data.draw(st.integers(0, (1 << 63) - 1))
    fast = GshareFastPredictor(1 << bits, pht_latency=latency, buffer_bits=buffer_bits)
    start_global(fast.history, start)
    check(KERNELS["gshare_fast"], fast, lambda p, pc: (p.index(pc),),
          lambda p: [global_history(p)], lambda p: [p.history.value], stream, split)

    bimode = BiModeFastPredictor(
        1 << bits, choice_entries=1 << data.draw(st.integers(0, 10)), pht_latency=latency,
        buffer_bits=buffer_bits,
    )
    bimode._history = start & mask(bimode._history_bits)

    def register(p):
        return native.History(p._history_bits, p._history)

    check(KERNELS["bimode_fast"], bimode,
          lambda p, pc: (p.direction_index(pc), p._choice_index(pc)),
          lambda p: [register(p), register(p)], lambda p: [p._history] * 2, stream, split)


@SETTINGS
@given(stream=STREAMS, split=st.integers(0, 50), data=st.data())
def test_gskew_indices(stream, split, data):
    """e-gskew's and 2Bc-gskew's bank indices: ``skew_index`` over the
    full, short and long histories."""
    bits = data.draw(INDEX_BITS)
    start = data.draw(st.integers(0, (1 << 63) - 1))
    egskew = EGskewPredictor(1 << bits, history_length=data.draw(HISTORY_BITS))
    start_global(egskew.history, start)
    check(KERNELS["egskew"], egskew, lambda p, pc: p._indices(pc),
          lambda p: [global_history(p) for _ in range(3)],
          lambda p: [p.history.value] * 3, stream, split)

    twobc = TwoBcGskewPredictor(
        1 << bits, short_history=data.draw(HISTORY_BITS), long_history=data.draw(HISTORY_BITS)
    )
    start_global(twobc.history, start)
    check(KERNELS["2bcgskew"], twobc, lambda p, pc: p._indices(pc),
          lambda p: [global_history(p) for _ in range(4)],
          lambda p: [p.history.value] * 4, stream, split)


@SETTINGS
@given(stream=STREAMS, split=st.integers(0, 50), data=st.data())
def test_local_history_indices(stream, split, data):
    """tournament's global, local and chooser folds, and the local
    predictor's PHT fold over its local-history rows."""
    start = data.draw(st.integers(0, (1 << 63) - 1))
    tournament = TournamentPredictor(
        global_entries=1 << data.draw(INDEX_BITS),
        local_histories=1 << data.draw(st.integers(0, 6)),
        local_history_length=data.draw(st.integers(1, 63)),
        local_pht_entries=1 << data.draw(INDEX_BITS),
        chooser_entries=1 << data.draw(INDEX_BITS),
    )
    start_global(tournament.history, start)
    start_local(tournament.local_histories, data)
    check(KERNELS["tournament"], tournament, lambda p, pc: p._indices(pc),
          lambda p: [global_history(p), local_history(p.local_histories), global_history(p)],
          lambda p: [p.history.value, p.local_histories.snapshot(), p.history.value],
          stream, split)

    local = LocalPredictor(
        1 << data.draw(st.integers(0, 6)), data.draw(st.integers(1, 63)),
        pht_entries=1 << data.draw(INDEX_BITS),
    )
    start_local(local.histories, data)
    check(_COMPONENT_KERNELS[LocalPredictor], local, lambda p, pc: (p._pht_index(pc),),
          lambda p: [local_history(p.histories)], lambda p: [p.histories.snapshot()],
          stream, split)


@SETTINGS
@given(stream=STREAMS, split=st.integers(0, 50), data=st.data())
def test_loop_and_selection_indices(stream, split, data):
    """The loop predictor's entry and tag, and the multicomponent
    selection counters' row."""
    loop = LoopPredictor(1 << data.draw(INDEX_BITS))
    check(KERNELS["loop"], loop, lambda p, pc: p._entry(pc),
          lambda p: [native.History(0), native.History(0)], lambda p: [0, 0], stream, split)

    multi = MultiComponentPredictor(
        [BimodalPredictor(16), LoopPredictor(4)],
        selector_entries=1 << data.draw(INDEX_BITS),
    )
    check(KERNELS["multicomponent"], multi, lambda p, pc: (p._selector_index(pc),),
          lambda p: [native.History(0)], lambda p: [0], stream, split)


@SETTINGS
@given(
    stream=STREAMS,
    rows=st.integers(1, 300),
    global_bits=st.integers(1, 63),
    local_bits=st.integers(0, 63),
    data=st.data(),
)
def test_perceptron_row_and_inputs(stream, rows, global_bits, local_bits, data):
    """``perceptron_train``, one branch per call from zero weights: the one
    row it trains is ``_row(pc)`` and holds the outcome sign times
    ``_input_vector(pc)``, the bias then the global and local history bits
    as ±1; the histories it carries end as the predictor's."""
    p = PerceptronPredictor(
        rows, global_history=global_bits, local_history=local_bits,
        local_history_entries=1 << data.draw(st.integers(0, 6)),
    )
    start_global(p.history, data.draw(st.integers(0, (1 << 63) - 1)))
    if p.local_histories is not None:
        start_local(p.local_histories, data)
    (rule,) = KERNELS["perceptron"](p).rules()
    history = global_history(p)
    local = local_history(p.local_histories) if local_bits else native.History(0)
    for pc, taken in stream:
        row, inputs = p._row(pc), p._input_vector(pc)
        weights = np.zeros((rows, p.inputs), dtype=np.int32)
        predicted = native.perceptron_train(
            np.array([pc], dtype=np.int64), np.array([taken]), rule, history, local, weights,
            p.threshold, WEIGHT_MIN, WEIGHT_MAX,
        )
        assert predicted.tolist() == [True]  # a zero output predicts taken
        sign = 1 if taken else -1
        assert np.flatnonzero(weights.any(axis=1)).tolist() == [row]
        assert weights[row].tolist() == (sign * inputs).tolist()
        p.predict(pc)
        p.update(pc, taken)
    assert history.value == p.history.value
    if local_bits:
        assert local.rows.tolist() == p.local_histories.snapshot().tolist()
