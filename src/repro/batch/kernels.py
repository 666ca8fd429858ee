"""Array kernels underlying the batch prediction engine.

Everything a trace-driven predictor computes from PCs and true outcomes
alone is known for the whole trace up front; these functions compute it
for a chunk at once:

* :func:`packed_history` — the global-history register value *before* every
  branch of a chunk, computed with ``length`` shifted-OR passes instead of a
  per-branch shift (the history a trace-driven predictor sees is a pure
  function of the preceding outcomes, which are all known up front);
* :func:`fold_bits`, :func:`bit_reverse_bits`, :func:`rotate_left_bits` —
  the vectorized index hashes (XOR-fold, and the skewing functions of the
  gskew family);
* :func:`bit_lengths` — ``int.bit_length``, for the loop predictor's tag.

The state a predictor trains — counter tables, local-history rows, loop
entries, weights — steps branch by branch in the sequential cores of
:mod:`repro.native`.
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import mask
from repro.common.errors import ConfigurationError


def packed_history(
    takens: np.ndarray, length: int, prefix: np.ndarray | None = None
) -> np.ndarray:
    """History-register value *before* each branch of ``takens``.

    Bit ``k-1`` of ``out[t]`` is the outcome of branch ``t - k`` — exactly
    :class:`repro.common.history.HistoryRegister` after pushing outcomes
    ``0..t-1``.  ``prefix`` supplies the outcomes that precede
    ``takens[0]`` (oldest first) when evaluating a later chunk; branches
    before the start of time count as not-taken, matching the register's
    all-zero reset state.
    """
    takens = np.asarray(takens)
    n = len(takens)
    out = np.zeros(n, dtype=np.int64)
    if length == 0 or n == 0:
        return out
    if prefix is None or len(prefix) == 0:
        ext = takens.astype(np.int64)
        p = 0
    else:
        prefix = np.asarray(prefix, dtype=np.int64)[-length:]
        ext = np.concatenate([prefix, takens.astype(np.int64)])
        p = len(prefix)
    for k in range(1, length + 1):
        first = max(0, k - p)
        if first >= n:
            break
        out[first:] |= ext[p + first - k : p + n - k] << (k - 1)
    return out


def pack_outcomes(takens: np.ndarray, length: int) -> int:
    """Final history-register value after pushing every outcome of
    ``takens`` (most recent outcome in bit 0)."""
    value = 0
    for taken in np.asarray(takens)[-length:] if length else ():
        value = ((value << 1) | int(taken)) & mask(length)
    return value


def unpack_history(value: int, length: int) -> np.ndarray:
    """The outcomes a ``length``-bit history register holding ``value``
    stands for, oldest first — the inverse of :func:`pack_outcomes`, used
    as the prefix of a stream evaluated from a non-empty history."""
    return np.array([(value >> age) & 1 for age in reversed(range(length))], dtype=bool)


def fold_bits(values: np.ndarray, in_width: int, out_width: int) -> np.ndarray:
    """Vectorized :func:`repro.common.bits.fold` over an int64 array."""
    v = np.asarray(values, dtype=np.int64) & mask(in_width)
    out = np.zeros_like(v)
    if out_width <= 0:
        if out_width == 0:
            return out
        raise ConfigurationError(f"fold out_width must be >= 0, got {out_width}")
    m = mask(out_width)
    while np.any(v):
        out ^= v & m
        v >>= out_width
    return out


def bit_reverse_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Vectorized :func:`repro.common.bits.bit_reverse`."""
    v = np.asarray(values, dtype=np.int64)
    out = np.zeros_like(v)
    for bit in range(width):
        out |= ((v >> bit) & 1) << (width - 1 - bit)
    return out


def rotate_left_bits(values: np.ndarray, amount: int, width: int) -> np.ndarray:
    """Vectorized :func:`repro.common.bits.rotate_left`."""
    if width <= 0:
        raise ConfigurationError(f"rotate width must be positive, got {width}")
    amount %= width
    v = np.asarray(values, dtype=np.int64) & mask(width)
    return ((v << amount) | (v >> (width - amount))) & mask(width)


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` of non-negative int64 values below
    2**53: the binary exponent of each value, exact in float64."""
    return np.frexp(np.asarray(values, dtype=np.int64))[1].astype(np.int64)


def hash_pcs(pcs: np.ndarray, width: int) -> np.ndarray:
    """Vectorized :func:`repro.common.bits.hash_pc`."""
    return fold_bits(np.asarray(pcs, dtype=np.int64) >> 2, 32, width)
