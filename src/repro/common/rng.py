"""Deterministic random-number plumbing.

Every stochastic choice in the workload generator must be reproducible from a
single seed so that experiments are rerunnable bit-for-bit.  ``derive`` gives
each named subsystem an independent stream from a root seed, so adding a new
consumer never perturbs the draws seen by existing ones.

The workload generator draws through an :class:`ExactStream` wrapped around
its derived ``Generator``.  The stream reads PCG64 words in batches and
turns them into draws on plain Python ints, reproducing bit for bit what the
numpy ``Generator`` method of the same name returns (numpy 2.4's
algorithms).  A scalar numpy call costs 0.5-3 µs of call overhead around a
few nanoseconds of PCG64 work, and generating a trace makes hundreds of
thousands of them.

Reproducibility contract.  NEP 19 keeps PCG64's raw word stream stable
across numpy releases but not the ``Generator`` methods that turn words
into draws.  A trace is therefore a function of the raw PCG64 words plus
this module's transforms for ``random``, ``integers``, ``uniform`` and
``choice``; ``normal`` and ``geometric`` use numpy's ziggurat tables, which
numpy does not expose, and stay numpy's.  Workload code draws only through
the stream: a direct numpy call on the same bit generator would shift every
later draw, which is why the wrapped ``Generator`` is not exposed.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from numbers import Integral
from typing import Sequence

import numpy as np

from repro.common.errors import ConfigurationError

#: PCG64 words fetched per refill.  A ``normal``/``geometric`` call rewinds
#: the unused rest of the batch, so a larger batch costs those calls more.
BATCH_WORDS = 64

_DOUBLE_UNIT = 2.0**-53
_LOW32 = 0xFFFF_FFFF
_RANGE32 = 1 << 32
#: numpy's tolerance on ``sum(p) == 1`` for float64 probabilities.
_P_TOLERANCE = math.sqrt(np.finfo(np.float64).eps)
#: numpy's ``choice(..., replace=False)`` switches from Floyd's algorithm to
#: a tail shuffle above this population (when the sample is not tiny).
_FLOYD_POPULATION = 10_000


def derive(seed: int, *names: str | int) -> np.random.Generator:
    """Return a Generator for the stream identified by ``seed`` and ``names``.

    The stream is independent (by construction via SHA-256) of any stream
    derived with a different name path.
    """
    return np.random.default_rng(derive_seed(seed, *names))


def derive_seed(seed: int, *names: str | int) -> int:
    """The integer sub-seed :func:`derive` seeds its Generator with."""
    digest = hashlib.sha256()
    digest.update(str(seed).encode())
    for name in names:
        digest.update(b"/")
        digest.update(str(name).encode())
    return int.from_bytes(digest.digest()[:8], "little")


class ExactStream:
    """Scalar draws from a PCG64 ``Generator``, bit-identical to numpy's.

    Mirrors ``random()``, ``integers(low, high)``, ``uniform(low, high)``
    and ``choice`` (uniform, weighted with ``p=``, and ``size=k,
    replace=False``) on batches of raw PCG64 words; ``normal`` and
    ``geometric`` rewind the bit generator past the unused words and call
    the wrapped ``Generator``.  Calls numpy supports but the stream does
    not mirror (array ``size=``, ranges above 2**32, ``dtype``,
    ``endpoint``) raise rather than diverge.

    numpy's rules, reproduced here:

    * ``random()`` is ``(word >> 11) * 2**-53``.
    * A 32-bit draw takes the low half of a fresh word and keeps the high
      half for the next 32-bit draw (PCG64's ``has_uint32`` buffer); a
      64-bit draw never takes the kept half.
    * ``integers`` over a range of at most 2**32 is Lemire's multiply-shift
      on a 32-bit draw, rejecting while the low product word is below
      ``2**32 % range``; a range of 1 draws nothing.  (For a range of
      exactly 2**32 the multiply-shift returns the raw 32-bit draw, which is
      what numpy's special case for that range returns.)
    * ``choice`` with ``p`` is ``bisect_right(cdf, random())`` with ``cdf =
      p.cumsum(); cdf /= cdf[-1]``; without ``p`` it is one bounded draw;
      without replacement it is Floyd's algorithm followed by a shuffle of
      the picks.
    """

    __slots__ = ("_generator", "_bits", "_words", "_next", "_kept", "_cdfs")

    def __init__(self, generator: np.random.Generator) -> None:
        bits = generator.bit_generator
        if type(bits) is not np.random.PCG64:
            raise ConfigurationError(
                f"ExactStream mirrors PCG64 only, not {type(bits).__name__}"
            )
        state = bits.state
        self._generator = generator
        self._bits = bits
        self._words: list[int] = []
        self._next = BATCH_WORDS  # nothing buffered yet
        #: The high half of the last word a 32-bit draw split, if unused.
        self._kept: int | None = state["uinteger"] if state["has_uint32"] else None
        self._cdfs: dict[tuple, list[float]] = {}

    # -- raw words -----------------------------------------------------------

    def _word(self) -> int:
        index = self._next
        if index == BATCH_WORDS:
            self._words = self._bits.random_raw(BATCH_WORDS).tolist()
            index = 0
        self._next = index + 1
        return self._words[index]

    def _next32(self) -> int:
        kept = self._kept
        if kept is not None:
            self._kept = None
            return kept
        word = self._word()
        self._kept = word >> 32
        return word & _LOW32

    def _wrapped(self) -> np.random.Generator:
        """The wrapped Generator, its bit generator rewound to the first
        word this stream has not used."""
        unused = BATCH_WORDS - self._next
        if unused:
            self._bits.advance(-unused)
            self._next = BATCH_WORDS
        return self._generator

    # -- mirrored methods ----------------------------------------------------

    def random(self) -> float:
        """A double in [0, 1), as ``Generator.random()``."""
        # _word() inlined: this is the most frequent draw.
        index = self._next
        if index == BATCH_WORDS:
            self._words = self._bits.random_raw(BATCH_WORDS).tolist()
            index = 0
        self._next = index + 1
        return (self._words[index] >> 11) * _DOUBLE_UNIT

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in [low, high) (or [0, low)), as ``Generator.integers``."""
        if high is None:
            low, high = 0, low
        span = high - low
        if span == 1:
            return low
        if span <= 0:
            raise ValueError(f"low >= high ({low} >= {high})")
        if span > _RANGE32:
            raise NotImplementedError("ExactStream mirrors ranges of at most 2**32")
        product = self._next32() * span
        if product & _LOW32 < span:
            threshold = _RANGE32 % span
            while product & _LOW32 < threshold:
                product = self._next32() * span
        return low + (product >> 32)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A double in [low, high), as ``Generator.uniform``."""
        low = float(low)
        span = float(high) - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0:
            raise ValueError("rng < 0")
        return low + span * self.random()

    def choice(
        self,
        population: int | Sequence,
        size: int | None = None,
        replace: bool = True,
        p: Sequence[float] | np.ndarray | None = None,
    ):
        """One element of ``population`` (an int ``n`` means ``range(n)``),
        or, with ``size=k, replace=False``, a list of ``k`` distinct ones;
        as ``Generator.choice``."""
        if isinstance(population, Integral):
            count, items = population, None
        else:
            count, items = len(population), population
        if p is not None:
            if size is not None:
                raise NotImplementedError("ExactStream mirrors scalar weighted choice only")
            index = bisect_right(self._cdf(count, p), self.random())
        elif size is None:
            index = self.integers(0, count)
        elif replace:
            raise NotImplementedError("ExactStream mirrors size= only with replace=False")
        else:
            picks = self._distinct(count, size)
            return picks if items is None else [items[pick] for pick in picks]
        return index if items is None else items[index]

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """``Generator.normal(loc, scale)``, drawn by numpy."""
        return self._wrapped().normal(loc, scale)

    def geometric(self, p: float) -> int:
        """``Generator.geometric(p)``, drawn by numpy."""
        return self._wrapped().geometric(p)

    # -- helpers -------------------------------------------------------------

    def _cdf(self, count: int, p) -> list[float]:
        """numpy's cumulative weights for ``p``, validated and built once."""
        key = (count, tuple(p))
        cdf = self._cdfs.get(key)
        if cdf is None:
            weights = np.asarray(p, dtype=np.float64)
            if weights.size != count:
                raise ValueError("a and p must have same size")
            total = math.fsum(weights.tolist())
            if math.isnan(total):
                raise ValueError("Probabilities contain NaN")
            if (weights < 0).any():
                raise ValueError("Probabilities are not non-negative")
            if abs(total - 1.0) > _P_TOLERANCE:
                raise ValueError("Probabilities do not sum to 1")
            cumulative = weights.cumsum()
            cumulative /= cumulative[-1]
            cdf = self._cdfs[key] = cumulative.tolist()
        return cdf

    def _distinct(self, count: int, size: int) -> list[int]:
        """``size`` distinct indices below ``count``: Floyd's algorithm,
        then numpy's shuffle of the picks."""
        if not 0 <= size <= count:
            raise ValueError("Cannot take a larger sample than population when replace=False")
        if count > _FLOYD_POPULATION and size > count // 50:
            raise NotImplementedError("ExactStream mirrors Floyd's algorithm only")
        picks: list[int] = []
        chosen: set[int] = set()
        for top in range(count - size, count):
            pick = self.integers(0, top + 1)
            if pick in chosen:
                pick = top
            chosen.add(pick)
            picks.append(pick)
        for last in range(size - 1, 0, -1):
            swap = self.integers(0, last + 1)
            picks[last], picks[swap] = picks[swap], picks[last]
        return picks
