"""Tests for deterministic RNG stream derivation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.rng import ExactStream, derive, derive_seed


class TestDerive:
    def test_same_path_same_stream(self):
        a = derive(42, "workload", "gcc")
        b = derive(42, "workload", "gcc")
        assert a.integers(0, 1 << 30, size=16).tolist() == b.integers(
            0, 1 << 30, size=16
        ).tolist()

    def test_different_names_differ(self):
        a = derive(42, "workload", "gcc")
        b = derive(42, "workload", "gzip")
        assert a.integers(0, 1 << 30, size=16).tolist() != b.integers(
            0, 1 << 30, size=16
        ).tolist()

    def test_different_seeds_differ(self):
        a = derive(1, "x")
        b = derive(2, "x")
        assert a.integers(0, 1 << 30, size=16).tolist() != b.integers(
            0, 1 << 30, size=16
        ).tolist()

    def test_path_is_not_concatenation_ambiguous(self):
        # ("ab", "c") must not collide with ("a", "bc").
        a = derive_seed(7, "ab", "c")
        b = derive_seed(7, "a", "bc")
        assert a != b

    def test_integer_names_supported(self):
        assert derive_seed(7, "fn", 1) != derive_seed(7, "fn", 2)

    def test_derive_seed_matches_derive(self):
        seed = derive_seed(9, "s")
        from_seed = np.random.default_rng(seed).integers(0, 1 << 30, size=8).tolist()
        from_derive = derive(9, "s").integers(0, 1 << 30, size=8).tolist()
        assert from_seed == from_derive


# -- ExactStream against numpy's Generator --------------------------------------

#: Ranges for ``integers``: no draw (1), small, 2**20, the Lemire rejection
#: loop (2**31 + 2 rejects about half its first draws) and 2**32, which numpy
#: special-cases as a raw 32-bit draw.
RANGES = (1, 2, 7, 64, 2**20, 2**31 + 2, 2**32)

#: Weighted-choice vectors: the predicate mix over ints, and the and/or/xor
#: weights over a list, as the program synthesizer draws them.
MIX = (0.5, 0.2, 0.06, 0.12, 0.12)
OPS = ["and", "or", "xor"]
OP_WEIGHTS = [0.35, 0.35, 0.30]


class CountingStream(ExactStream):
    """Counts 32-bit draws, so a test can see Lemire's rejection loop run."""

    __slots__ = ("draws32",)

    def __init__(self, generator):
        super().__init__(generator)
        self.draws32 = 0

    def _next32(self):
        self.draws32 += 1
        return super()._next32()


def _pair(seed):
    """(numpy Generator, stream over an identically seeded Generator, the
    stream's own Generator)."""
    wrapped = np.random.default_rng(seed)
    return np.random.default_rng(seed), ExactStream(wrapped), wrapped


def _apply(op, generator, stream):
    """One call on both sides, as (numpy's value, the stream's value)."""
    name, *args = op
    if name == "random":
        return generator.random(), stream.random()
    if name == "integers":
        low, span = args
        return int(generator.integers(low, low + span)), stream.integers(low, low + span)
    if name == "integers_high":
        return int(generator.integers(args[0])), stream.integers(args[0])
    if name == "uniform":
        low, high = args
        return generator.uniform(low, high), stream.uniform(low, high)
    if name == "choice_mix":
        return int(generator.choice(len(MIX), p=MIX)), stream.choice(len(MIX), p=MIX)
    if name == "choice_ops":
        return str(generator.choice(OPS, p=OP_WEIGHTS)), stream.choice(OPS, p=OP_WEIGHTS)
    if name == "choice_weights":
        weights = args[0]
        return int(generator.choice(len(weights), p=weights)), stream.choice(
            len(weights), p=weights
        )
    if name == "choice":
        population = list(range(3, 3 + args[0]))
        return int(generator.choice(population)), stream.choice(population)
    if name == "sample":
        count, population = args
        picks = generator.choice(range(4, 4 + population), size=count, replace=False)
        return [int(pick) for pick in picks], stream.choice(
            range(4, 4 + population), size=count, replace=False
        )
    if name == "sample_int":
        count, population = args
        picks = generator.choice(population, size=count, replace=False)
        return picks.tolist(), stream.choice(population, size=count, replace=False)
    if name == "normal":
        return generator.normal(args[0], 2.0), stream.normal(args[0], 2.0)
    assert name == "geometric"
    return int(generator.geometric(args[0])), int(stream.geometric(args[0]))


def _weights():
    return st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6).filter(
        lambda raw: sum(raw) > 0
    ).map(lambda raw: (np.array(raw) / sum(raw)).tolist())


_OP = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.integers(-8, 8), st.sampled_from(RANGES)),
    st.tuples(st.just("integers_high"), st.sampled_from(RANGES)),
    st.tuples(st.just("uniform"), st.floats(-1e6, 0.0), st.floats(0.0, 1e6)),
    st.just(("choice_mix",)),
    st.just(("choice_ops",)),
    st.tuples(st.just("choice_weights"), _weights()),
    st.tuples(st.just("choice"), st.integers(1, 20)),
    st.tuples(st.just("sample"), st.integers(1, 3), st.integers(3, 12)),
    st.tuples(st.just("sample_int"), st.integers(1, 3), st.integers(3, 12)),
    st.tuples(st.just("normal"), st.floats(-10.0, 10.0)),
    st.tuples(st.just("geometric"), st.sampled_from((0.05, 0.2, 0.5, 0.9))),
)


def _assert_synchronised(generator, wrapped):
    """The two bit generators sit at the same word: the next 8 agree."""
    assert generator.bit_generator.random_raw(8).tolist() == wrapped.bit_generator.random_raw(
        8
    ).tolist()


class TestExactStream:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), ops=st.lists(_OP, max_size=200))
    def test_interleavings_match_numpy(self, seed, ops):
        generator, stream, wrapped = _pair(seed)
        for op in ops:
            expected, actual = _apply(op, generator, stream)
            assert actual == expected, op
        # A delegated call rewinds the stream's unused words first, so
        # afterwards both bit generators must stand at the same word.
        assert stream.normal() == generator.normal()
        _assert_synchronised(generator, wrapped)

    @pytest.mark.parametrize("offset", [0, 1, 63, 64])
    @pytest.mark.parametrize("method", ["normal", "geometric"])
    @pytest.mark.parametrize("kept_half", [False, True])
    def test_delegated_calls_at_batch_offsets(self, offset, method, kept_half):
        """``offset`` words of the current batch used (64 = all of them),
        optionally with a kept 32-bit half pending across the call."""
        generator, stream, wrapped = _pair(offset + 100)
        for _ in range(offset):
            assert stream.random() == generator.random()
        if kept_half:
            assert stream.integers(0, 64) == generator.integers(0, 64)
        op = ("normal", 3.0) if method == "normal" else ("geometric", 0.1)
        expected, actual = _apply(op, generator, stream)
        assert actual == expected
        assert stream.integers(0, 2**32) == generator.integers(0, 2**32)
        assert stream.random() == generator.random()
        assert stream.normal() == generator.normal()
        _assert_synchronised(generator, wrapped)

    def test_lemire_rejection_loop_runs_and_matches_numpy(self):
        """integers(0, 2**31 + 2) rejects about half its first 32-bit draws
        (the threshold 2**32 % range is 2**31 - 2), interleaved here with
        doubles and raw 32-bit draws."""
        generator = np.random.default_rng(2024)
        wrapped = np.random.default_rng(2024)
        stream = CountingStream(wrapped)
        bounded_calls = 0
        for step in range(20_000):
            if step % 5 == 3:
                assert stream.random() == generator.random()
            elif step % 5 == 4:
                assert stream.integers(0, 2**32) == generator.integers(0, 2**32)
            else:
                assert stream.integers(0, 2**31 + 2) == generator.integers(0, 2**31 + 2)
                bounded_calls += 1
        rejections = stream.draws32 - bounded_calls - 4_000
        assert rejections > 0.4 * bounded_calls
        stream.normal()
        generator.normal()
        _assert_synchronised(generator, wrapped)

    def test_kept_half_of_the_wrapped_generator_is_honoured(self):
        """A Generator that already split a word hands its kept half on."""
        generator = np.random.default_rng(5)
        wrapped = np.random.default_rng(5)
        assert generator.integers(0, 10) == wrapped.integers(0, 10)
        stream = ExactStream(wrapped)
        for _ in range(5):
            assert stream.integers(0, 1000) == generator.integers(0, 1000)

    def test_weighted_choice_checks_probabilities_like_numpy(self):
        generator, stream, _ = _pair(3)
        for weights in ([0.5, 0.6, -0.1], [0.2, 0.2, 0.2], [0.5, float("nan"), 0.5]):
            with pytest.raises(ValueError):
                generator.choice(3, p=weights)
            with pytest.raises(ValueError):
                stream.choice(3, p=weights)
        with pytest.raises(ValueError):
            stream.choice(4, p=[0.5, 0.5])

    def test_unsupported_calls_raise(self):
        _, stream, _ = _pair(1)
        with pytest.raises(TypeError):
            stream.random(3)
        with pytest.raises(TypeError):
            stream.integers(0, 10, size=3)
        with pytest.raises(TypeError):
            stream.integers(0, 10, dtype=np.int32)
        with pytest.raises(TypeError):
            stream.integers(0, 10, endpoint=True)
        with pytest.raises(TypeError):
            stream.uniform(0.0, 1.0, size=2)
        with pytest.raises(TypeError):
            stream.normal(0.0, 1.0, size=2)
        with pytest.raises(NotImplementedError):
            stream.integers(0, 2**32 + 1)
        with pytest.raises(NotImplementedError):
            stream.choice(5, size=2)
        with pytest.raises(NotImplementedError):
            stream.choice(3, size=1, replace=False, p=[0.2, 0.3, 0.5])
        with pytest.raises(NotImplementedError):
            stream.choice(20_000, size=1_000, replace=False)
        with pytest.raises(ValueError):
            stream.integers(5, 5)
        with pytest.raises(ValueError):
            stream.choice(3, size=4, replace=False)
        assert not any(
            isinstance(getattr(stream, name, None), np.random.Generator)
            for name in dir(stream)
            if not name.startswith("_")
        )

    def test_only_pcg64_is_mirrored(self):
        with pytest.raises(ConfigurationError):
            ExactStream(np.random.Generator(np.random.MT19937(1)))
