"""Sequential cores in C: the per-branch and per-block loops of the batch
engine and the cycle simulator.

The batch engine's cores take each branch's PC and outcome and form in C
what the scalar predictor forms from them: the global history (a
:class:`History` carried from call to call), local-history rows, each
table's index under its :func:`rule`, the perceptron's inputs.  Then they
step the counter tables (every single-table family, the local PHTs and
tournament's chooser), the coupled tables (Bi-Mode, e-gskew, 2Bc-gskew),
loop entries, multicomponent selection counters and perceptron weights;
the cycle simulator's cache, BTB and RAS replays and timing loop step
through their events in order on state the previous event wrote.
``cores.c`` holds them; :mod:`repro.native.loader` builds it with the
system C compiler on the first call to any core and caches the object
beside this package.

Every function here checks what it passes: each array argument is
declared with its dtype and ``C_CONTIGUOUS`` (and ``WRITEABLE`` where the
core writes, and the shape of a rule or a one-row register), so a wrong
one raises ``ctypes.ArgumentError`` before any C runs; every length is
checked here, every history width by :class:`History` and every index
rule by :func:`rule`.  The cores check every index and fill count they
read or form and report one out of range, which raises ``IndexError``.
ctypes releases the GIL for each call.
"""

from __future__ import annotations

import ctypes
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from repro.common.bits import is_power_of_two
from repro.common.errors import ConfigurationError
from repro.native.loader import Library

#: The process's library: built or loaded on the first call to a core.
LIBRARY = Library()

#: The widest history a core carries: a register of up to 63 bits fits the
#: int64 slot it travels in (and every shift the cores make).
HISTORY_BITS = 63

#: Index rule kinds, in ``cores.c``'s ``table_index`` order (see :func:`rule`).
PC, GSHARE, FAST, FOLD, SKEW, ROW, LOOP_TAG = range(7)

#: A rule's int64s: the kind, the index bits, then up to three parameters.
RULE_FIELDS = 5

#: The parameters each kind takes after its index bits, and whether each
#: is a bit width (0 to HISTORY_BITS).
_RULE_PARAMETERS = {
    PC: (),
    GSHARE: (),
    FAST: (True, True, True),
    FOLD: (True,),
    SKEW: (True, False),
    ROW: (False,),
    LOOP_TAG: (),
}


def rule(kind: int, bits: int, *parameters: int) -> np.ndarray:
    """How a table's index is formed from a branch's PC and the history
    row it reads, as the scalar predictors form it (``repro.common.bits``):

    * ``PC``: ``(pc >> 2) & mask(bits)``;
    * ``GSHARE``: ``(hash_pc(pc, bits) ^ history) & mask(bits)``;
    * ``FAST, buffer_bits, staleness, select_bits``: gshare.fast's index;
    * ``FOLD, length``: ``fold(history, length, bits)``;
    * ``SKEW, length, bank``: ``gskew.skew_index(pc, history, length,
      bits, bank)``;
    * ``ROW, rows``: ``hash_pc(pc, bits) % rows``, the perceptron's row;
    * ``LOOP_TAG``: the loop predictor's tag, for ``bits`` index bits.

    Raises ConfigurationError for a rule the cores cannot form: an unknown
    kind, a width outside 0 to :data:`HISTORY_BITS`, more buffer bits than
    index bits, a skew bank other than 0 to 2 (1 and 2 rotate, so need an
    index bit), or no rows.
    """
    kinds = _RULE_PARAMETERS.get(kind)
    fields = (kind, bits, *parameters)
    if kinds is None or len(parameters) != len(kinds):
        raise ConfigurationError(f"unknown index rule {fields}")
    widths = [bits, *(value for value, width in zip(parameters, kinds) if width)]
    valid = all(0 <= width <= HISTORY_BITS for width in widths)
    if kind == FAST:
        valid = valid and parameters[0] <= bits
    elif kind == SKEW:
        valid = valid and (parameters[1] == 0 or 1 <= parameters[1] <= 2 and bits > 0)
    elif kind == ROW:
        valid = valid and parameters[0] > 0
    if not valid:
        raise ConfigurationError(f"index rule {fields} is out of range")
    return np.array(fields + (0,) * (RULE_FIELDS - len(fields)), dtype=np.int64)


class History:
    """History rows a core carries from call to call, updated in place:
    ``rows`` registers of ``length`` bits (0 to :data:`HISTORY_BITS`),
    newest outcome in bit 0.  The branch at ``pc`` reads row ``(pc >> 2) &
    (len(rows) - 1)``, the history before it, then shifts its outcome in:
    a global-history register is one row, a ``LocalHistoryTable`` its
    rows.  Holds a copy of ``rows``."""

    def __init__(self, length: int, rows=0) -> None:
        if not 0 <= length <= HISTORY_BITS:
            raise ValueError(f"history of {length} bits: the cores carry 0 to {HISTORY_BITS}")
        self.length = length
        self.rows = np.array(rows, dtype=np.int64, ndmin=1)
        if self.rows.ndim != 1 or not is_power_of_two(len(self.rows)):
            raise ValueError(f"history rows must be a power of two, got shape {self.rows.shape}")

    @property
    def value(self) -> int:
        """A global register's value: its one row."""
        return int(self.rows[0])


def signatures() -> dict[str, tuple]:
    """Argument types of every core, in ``cores.c`` order."""

    def array(dtype, ndim: int = 1, writeable: bool = False, shape=None):
        flags = "C_CONTIGUOUS,WRITEABLE" if writeable else "C_CONTIGUOUS"
        return np.ctypeslib.ndpointer(dtype=dtype, ndim=ndim, shape=shape, flags=flags)

    def rules(count: int):
        return array(np.int64, ndim=2, shape=(count, RULE_FIELDS))

    i, f = ctypes.c_int64, ctypes.c_double
    index, flags, out_flags = array(np.int64), array(np.bool_), array(np.bool_, writeable=True)
    counters, state = array(np.int16, writeable=True), array(np.int64, writeable=True)
    rows, floats = array(np.int64, ndim=2, writeable=True), array(np.float64)
    rule_ = array(np.int64, shape=(RULE_FIELDS,))
    register = array(np.int64, writeable=True, shape=(1,))
    return {
        "indices": (i, index, flags, rule_, state, i, i, state),
        "counter_replay": (
            i, index, flags, rule_, state, i, i, counters, i, i, i, i, state, out_flags, i,
            state, out_flags,
        ),
        "chooser_replay": (
            i, index, flags, rule_, register, i, flags, flags, counters, i, i, i, out_flags,
        ),
        "bimode_replay": (
            i, index, flags, rules(2), register, i, counters, counters, i, counters, i, i, i,
            i, i, out_flags,
        ),
        "egskew_replay": (
            i, index, flags, rules(3), register, i, counters, i, counters, counters, i, i, i,
            out_flags,
        ),
        "twobc_gskew_replay": (
            i, index, flags, rules(4), register, i, counters, i, counters, counters, counters,
            i, i, i, out_flags,
        ),
        "loop_replay": (i, index, flags, rules(2), rows, i, i, i, out_flags),
        "selection_replay": (i, index, rule_, index, state, i, array(np.uint32), i, i, out_flags),
        "perceptron_train": (
            i, index, flags, rule_, register, i, state, i, i,
            array(np.int32, ndim=2, writeable=True), i, i, i, i, i, out_flags,
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

#: The update queue of a table whose writes are visible at once.
_NO_QUEUE = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))


def indices(pcs, takens, rule, history: History) -> np.ndarray:
    """The index ``rule`` forms for each branch over ``history`` (updated
    in place), as every core forms it: the cores' index function, exposed
    so that it can be checked against the scalar predictors."""
    n = _length(pcs, takens)
    out = np.empty(n, dtype=np.int64)
    _call("indices", n, pcs, takens, rule, history.rows, len(history.rows), history.length, out)
    return out


def counter_replay(
    pcs, takens, rule, history: History, table, threshold, top, queue=_NO_QUEUE,
    pending: int = 0,
) -> tuple[np.ndarray, int]:
    """A counter table that every branch reads at ``rule``'s index over
    ``history`` and then trains toward ``takens``; ``table`` and
    ``history`` are updated in place.  Returns the votes and the writes
    still pending.

    ``queue`` is a ``(cells, takens)`` pair of ``delay`` slots, of which the
    first ``pending`` hold the delayed writes from before the stream, oldest
    first; a write becomes visible ``delay`` branches after its own read.
    The queue is updated in place to the writes pending after the stream.
    """
    n = _length(pcs, takens)
    delay = _length(*queue)
    cells = np.empty(n, dtype=np.int64)
    votes = np.empty(n, dtype=bool)
    pending = _call(
        "counter_replay", n, pcs, takens, rule, history.rows, len(history.rows),
        history.length, table, len(table), threshold, top, delay, *queue, pending, cells, votes,
    )
    return votes, pending


def chooser_replay(
    pcs, takens, rule, history: History, global_votes, local_votes, table, threshold, top
) -> np.ndarray:
    """Tournament's chooser at ``rule``'s index over the global ``history``,
    read by every branch and trained toward the global vote's correctness
    where the votes disagree; updates ``table`` and ``history`` in place,
    returns the predictions."""
    n = _length(pcs, takens, global_votes, local_votes)
    predictions = np.empty(n, dtype=bool)
    _call(
        "chooser_replay", n, pcs, takens, rule, history.rows, history.length, global_votes,
        local_votes, table, len(table), threshold, top, predictions,
    )
    return predictions


def bimode_replay(
    pcs, takens, rules, history: History, taken_table, not_taken_table, choice_table,
    direction_threshold, direction_max, choice_threshold, choice_max,
) -> np.ndarray:
    """Bi-Mode's core over (direction, choice) ``rules`` and the global
    ``history``; updates the three tables and ``history`` in place,
    returns the predictions."""
    n = _length(pcs, takens)
    size = _length(taken_table, not_taken_table)
    predictions = np.empty(n, dtype=bool)
    _call(
        "bimode_replay", n, pcs, takens, rules, history.rows, history.length, taken_table,
        not_taken_table, size, choice_table, len(choice_table), direction_threshold,
        direction_max, choice_threshold, choice_max, predictions,
    )
    return predictions


def egskew_replay(pcs, takens, rules, history: History, tables, threshold, top) -> np.ndarray:
    """e-gskew's partial-update majority vote over (bim, g0, g1) ``rules``
    and tables and the global ``history``; updates the tables and
    ``history`` in place, returns the predictions."""
    bim, t0, t1 = tables
    n = _length(pcs, takens)
    predictions = np.empty(n, dtype=bool)
    _call(
        "egskew_replay", n, pcs, takens, rules, history.rows, history.length, bim, len(bim),
        t0, t1, _length(t0, t1), threshold, top, predictions,
    )
    return predictions


def twobc_gskew_replay(pcs, takens, rules, history: History, tables, threshold, top) -> np.ndarray:
    """2Bc-gskew's core over (bim, g0, g1, meta) ``rules`` and tables and
    the global ``history``; updates the tables and ``history`` in place,
    returns the predictions."""
    bim, t0, t1, meta = tables
    n = _length(pcs, takens)
    predictions = np.empty(n, dtype=bool)
    _call(
        "twobc_gskew_replay", n, pcs, takens, rules, history.rows, history.length, bim,
        len(bim), t0, t1, meta, _length(t0, t1, meta), threshold, top, predictions,
    )
    return predictions


def loop_replay(pcs, takens, rules, entries, threshold, max_trip) -> np.ndarray:
    """Loop entries (rows of tag, trip, current, confidence, direction) at
    the (entry, tag) ``rules``, stepped branch by branch; updates
    ``entries`` in place, returns the predictions."""
    n = _length(pcs, takens)
    if entries.ndim != 2 or entries.shape[1] != 5:
        raise ValueError(f"loop entries must be rows of 5 fields, got shape {entries.shape}")
    predictions = np.empty(n, dtype=bool)
    _call("loop_replay", n, pcs, takens, rules, entries, len(entries), threshold, max_trip,
          predictions)
    return predictions


def selection_replay(pcs, rule, correct, state, transitions, components) -> np.ndarray:
    """Evers selection counters, packed per row (``rule``'s index) in
    ``state`` (updated in place); returns whether each branch's selected
    component was right."""
    n = _length(pcs, correct)
    selected = np.empty(n, dtype=bool)
    _call("selection_replay", n, pcs, rule, correct, state, len(state), transitions,
          len(transitions), components, selected)
    return selected


def perceptron_train(
    pcs, takens, rule, history: History, local: History, weights, threshold, weight_min,
    weight_max,
) -> np.ndarray:
    """One sequential training pass: each branch's weight row (``rule``'s
    index) against its inputs, the bias then the global ``history`` and
    its ``local`` row as ±1; updates ``weights`` and both histories in
    place, returns the predictions."""
    n = _length(pcs, takens)
    width = 1 + history.length + local.length
    if weights.shape[1:] != (width,):
        raise ValueError(f"weights {weights.shape} do not match {width} inputs")
    predictions = np.empty(n, dtype=bool)
    _call(
        "perceptron_train", n, pcs, takens, rule, history.rows, history.length, local.rows,
        len(local.rows), local.length, weights, len(weights), width, threshold, weight_min,
        weight_max, predictions,
    )
    return predictions


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
