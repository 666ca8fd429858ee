"""Sequential cores in C: the per-branch and per-block loops that have no
exact array form.

The batch engine's coupled-table replays (Bi-Mode, e-gskew, 2Bc-gskew),
loop entries, multicomponent selection counters and perceptron training,
and the cycle simulator's cache, BTB and RAS replays and timing loop, each
step through their events in order on state the previous event wrote.
``cores.c`` holds them; :mod:`repro.native.loader` builds it with the
system C compiler on the first call to any core and caches the object
beside this package.

Every function here checks what it passes: each array argument is
declared with its dtype and ``C_CONTIGUOUS`` (and ``WRITEABLE`` where the
core writes), so a wrong one raises ``ctypes.ArgumentError`` before any C
runs, and every length is checked here.  The cores check every index and
fill count they read and report one out of range, which raises
``IndexError``.  ctypes releases the GIL for each call.
"""

from __future__ import annotations

import ctypes
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from repro.native.loader import Library

#: The process's library: built or loaded on the first call to a core.
LIBRARY = Library()


def signatures() -> dict[str, tuple]:
    """Argument types of every core, in ``cores.c`` order."""

    def array(dtype, ndim: int = 1, writeable: bool = False):
        flags = "C_CONTIGUOUS,WRITEABLE" if writeable else "C_CONTIGUOUS"
        return np.ctypeslib.ndpointer(dtype=dtype, ndim=ndim, flags=flags)

    i, f = ctypes.c_int64, ctypes.c_double
    index, flags, out_flags = array(np.int64), array(np.bool_), array(np.bool_, writeable=True)
    counters, state = array(np.int16, writeable=True), array(np.int64, writeable=True)
    rows, floats = array(np.int64, ndim=2, writeable=True), array(np.float64)
    return {
        "bimode_replay": (
            i, index, index, flags, counters, counters, i, counters, i, i, i, i, i, out_flags,
        ),
        "egskew_replay": (
            i, index, index, index, flags, counters, i, counters, counters, i, i, i, out_flags,
        ),
        "twobc_gskew_replay": (
            i, index, index, index, index, flags, counters, i, counters, counters, counters,
            i, i, i, out_flags,
        ),
        "loop_replay": (i, index, index, flags, rows, i, i, i, out_flags),
        "selection_replay": (i, index, index, state, i, array(np.uint32), i, i, out_flags),
        "perceptron_train": (
            i, i, index, array(np.int8, ndim=2), array(np.int32, ndim=2, writeable=True),
            i, i, i, i, array(np.int32, writeable=True),
        ),
        "lru_replay": (i, index, i, i, i, i, rows, state, out_flags),
        "btb_replay": (i, index, index, i, i, i, rows, rows, state, out_flags),
        "ras_replay": (i, flags, index, state, i, state, out_flags),
        "time_blocks": (
            i, index, index, index, floats, floats, index, index, index, index, index,
            index, index, i, flags, flags, flags, i, i, i, f, i, i, i, i, i, rows, rows,
            state, state,
        ),
    }


#: Fields of :func:`time_blocks`' result, in ``cores.c`` order.
TIMING_FIELDS = (
    "cycles",
    "mispredict_stall",
    "ras_stall",
    "window_stall",
    "slow_used",
    "gap_wrong",
    "gap_btb_stall",
    "btb_lookups",
    "btb_misses",
)

#: ``probe`` values of :func:`time_blocks` besides a branch index.
NO_PROBE = -2
ALWAYS_PROBE = -1


@lru_cache(maxsize=None)
def bind(cdll: ctypes.CDLL) -> SimpleNamespace:
    """``cdll``'s cores with their argument and result types declared."""
    functions = SimpleNamespace()
    for name, argtypes in signatures().items():
        function = getattr(cdll, name)
        function.argtypes = argtypes
        function.restype = ctypes.c_int64
        setattr(functions, name, function)
    return functions


def _call(name: str, *args) -> int:
    result = getattr(bind(LIBRARY.cdll()), name)(*args)
    if result < 0:
        raise IndexError(f"native core {name}: an index or fill count is out of range")
    return result


def _length(*arrays: np.ndarray) -> int:
    """The common length of ``arrays``; raises ValueError when they differ."""
    lengths = {len(array) for array in arrays}
    if len(lengths) != 1:
        raise ValueError(f"stream arrays differ in length: {sorted(lengths)}")
    return lengths.pop()


# -- batch engine ----------------------------------------------------------------


def bimode_replay(
    direction, choice, takens, taken_table, not_taken_table, choice_table,
    direction_threshold, direction_max, choice_threshold, choice_max,
) -> np.ndarray:
    """Bi-Mode's counter core over precomputed direction and choice
    indices; updates the three tables in place, returns the predictions."""
    n = _length(direction, choice, takens)
    size = _length(taken_table, not_taken_table)
    predictions = np.empty(n, dtype=bool)
    _call(
        "bimode_replay", n, direction, choice, takens, taken_table, not_taken_table, size,
        choice_table, len(choice_table), direction_threshold, direction_max,
        choice_threshold, choice_max, predictions,
    )
    return predictions


def egskew_replay(indices, takens, tables, threshold, top) -> np.ndarray:
    """e-gskew's partial-update majority vote over (bim, g0, g1) indices
    and tables; updates the tables in place, returns the predictions."""
    b, g0, g1 = indices
    bim, t0, t1 = tables
    n = _length(b, g0, g1, takens)
    predictions = np.empty(n, dtype=bool)
    _call(
        "egskew_replay", n, b, g0, g1, takens, bim, len(bim), t0, t1, _length(t0, t1),
        threshold, top, predictions,
    )
    return predictions


def twobc_gskew_replay(indices, takens, tables, threshold, top) -> np.ndarray:
    """2Bc-gskew's core over (bim, g0, g1, meta) indices and tables;
    updates the tables in place, returns the predictions."""
    b, g0, g1, m = indices
    bim, t0, t1, meta = tables
    n = _length(b, g0, g1, m, takens)
    predictions = np.empty(n, dtype=bool)
    _call(
        "twobc_gskew_replay", n, b, g0, g1, m, takens, bim, len(bim), t0, t1, meta,
        _length(t0, t1, meta), threshold, top, predictions,
    )
    return predictions


def loop_replay(index, tags, takens, entries, threshold, max_trip) -> np.ndarray:
    """Loop entries (rows of tag, trip, current, confidence, direction)
    stepped branch by branch; updates ``entries`` in place, returns the
    predictions."""
    n = _length(index, tags, takens)
    if entries.ndim != 2 or entries.shape[1] != 5:
        raise ValueError(f"loop entries must be rows of 5 fields, got shape {entries.shape}")
    predictions = np.empty(n, dtype=bool)
    _call("loop_replay", n, index, tags, takens, entries, len(entries), threshold, max_trip,
          predictions)
    return predictions


def selection_replay(rows, correct, state, transitions, components) -> np.ndarray:
    """Evers selection counters, packed per row in ``state`` (updated in
    place); returns whether each branch's selected component was right."""
    n = _length(rows, correct)
    selected = np.empty(n, dtype=bool)
    _call("selection_replay", n, rows, correct, state, len(state), transitions,
          len(transitions), components, selected)
    return selected


def perceptron_train(rows, inputs, weights, threshold, weight_min, weight_max) -> np.ndarray:
    """One sequential training pass over signed input rows; updates
    ``weights`` in place and returns each branch's margin."""
    n = _length(rows, inputs)
    if inputs.shape[1:] != weights.shape[1:]:
        raise ValueError(f"inputs {inputs.shape} do not match weights {weights.shape}")
    margins = np.empty(n, dtype=np.int32)
    _call("perceptron_train", n, weights.shape[1], rows, inputs, weights, len(weights),
          threshold, weight_min, weight_max, margins)
    return margins


# -- cycle simulator -------------------------------------------------------------


def _check_sets(set_bits: int, *state: np.ndarray) -> int:
    sets = _length(*state)
    if sets != 1 << set_bits:
        raise ValueError(f"{sets} sets, expected 2**{set_bits}")
    return sets - 1


def lru_replay(addresses, line_shift, set_bits, tags, fill) -> np.ndarray:
    """True-LRU accesses of ``addresses`` on ``tags`` (sets x ways, least
    recent first) and ``fill``, both updated in place; returns the hits."""
    n = len(addresses)
    set_mask = _check_sets(set_bits, tags, fill)
    hits = np.empty(n, dtype=bool)
    _call("lru_replay", n, addresses, line_shift, set_mask, set_bits, tags.shape[1], tags,
          fill, hits)
    return hits


def btb_replay(pcs, targets, set_bits, tags, stored, fill) -> tuple[np.ndarray, int]:
    """BTB lookup-then-install per branch on ``tags``/``stored`` targets
    (sets x ways) and ``fill``, updated in place; returns where the lookup
    supplied the target, and the misses."""
    n = _length(pcs, targets)
    set_mask = _check_sets(set_bits, tags, stored, fill)
    if tags.shape != stored.shape:
        raise ValueError(f"BTB tags {tags.shape} and targets {stored.shape} differ")
    correct = np.empty(n, dtype=bool)
    misses = _call("btb_replay", n, pcs, targets, set_mask, set_bits, tags.shape[1], tags,
                   stored, fill, correct)
    return correct, misses


def ras_replay(calls, addresses, stack, counts) -> np.ndarray:
    """Pushes (``calls``) and pops on ``stack`` with ``counts`` = (in use,
    overflows), updated in place; returns False for each pop that did not
    return its address."""
    n = _length(calls, addresses)
    if len(counts) != 2:
        raise ValueError("RAS counts are (entries in use, overflows)")
    predicted = np.empty(n, dtype=bool)
    _call("ras_replay", n, calls, addresses, stack, len(stack), counts, predicted)
    return predicted


def time_blocks(blocks: dict, branches: dict, machine: dict, btb) -> dict[str, int]:
    """The timing loop over per-block arrays.

    ``blocks`` holds, per block: ``instructions``, ``icache``,
    ``fetch_cycles``, ``retire``, ``data`` (floats), ``bubble``,
    ``window``, ``penalty``, ``flush``, ``probe``, ``pc`` and ``target``.
    ``branches`` holds the ``quick``, ``slow`` and ``outcome`` streams a
    probe indexes; ``machine`` the scalar parameters; ``btb`` the
    :class:`repro.uarch.btb.BranchTargetBuffer` whose state the probes
    update in place.  Returns :data:`TIMING_FIELDS` by name.
    """
    columns = (
        "instructions", "icache", "fetch_cycles", "retire", "data", "bubble", "window",
        "penalty", "flush", "probe", "pc", "target",
    )
    n = _length(*(blocks[name] for name in columns))
    streams = (branches["quick"], branches["slow"], branches["outcome"])
    set_mask = _check_sets(btb.set_bits, btb.tags, btb.targets, btb.fill)
    if btb.tags.shape != btb.targets.shape:
        raise ValueError(f"BTB tags {btb.tags.shape} and targets {btb.targets.shape} differ")
    out = np.zeros(len(TIMING_FIELDS), dtype=np.int64)
    _call(
        "time_blocks", n, *(blocks[name] for name in columns), _length(*streams), *streams,
        machine["issue_width"], machine["blocks_per_cycle"], machine["front_depth"],
        machine["rob_lead"], machine["btb_miss_penalty"], machine["gap_cycles"],
        set_mask, btb.set_bits, btb.tags.shape[1], btb.tags, btb.targets, btb.fill, out,
    )
    return dict(zip(TIMING_FIELDS, out.tolist()))
