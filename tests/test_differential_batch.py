"""Differential tests: the batch engine must be bit-exact vs the scalar
reference.

The scalar ``predict``/``update`` protocol is the specification.  For every
registered family with a batch kernel (enrolled from the registry, at two
budgets) and for shape variants that stress the kernels, these tests
assert, via :func:`repro.batch.diff.diff_engines`, that the vectorized
engine produces

* the identical per-branch prediction stream, and
* the identical full final state — everything ``predictor.state()``
  exposes: counter tables, history registers, local histories, weights,
  loop entries, selection counters, composite components, the
  pending-update queue and the stats counters,

on synthetic streams, real workload traces, a recorded golden stream
(``tests/golden/branch_stream.csv``) and Hypothesis-generated random
traces — across chunk sizes that do and do not divide the stream length.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import diff_engines, evaluate_stream, evaluate_trace, supports_batch
from repro.batch.diff import run_scalar, state_mismatches
from repro.batch.engine import KERNELS
from repro.common.errors import ProtocolError
from repro.core.bimode_fast import BiModeFastPredictor
from repro.core.gshare_fast import GshareFastPredictor
from repro.harness.experiment import measure_accuracy
from repro.predictors import registry
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.bimode import BiModePredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.gskew import EGskewPredictor, TwoBcGskewPredictor
from repro.predictors.local import LocalPredictor
from repro.predictors.loop import LoopPredictor
from repro.predictors.multicomponent import MultiComponentPredictor
from repro.predictors.perceptron import WEIGHT_MAX, WEIGHT_MIN, PerceptronPredictor
from repro.predictors.tournament import TournamentPredictor
from tests.conftest import alternating_stream, biased_stream, loop_stream

GOLDEN_STREAM = Path(__file__).parent / "golden" / "branch_stream.csv"

#: Every family that declares a batch kernel, at a small budget (heavy
#: aliasing) and at the conformance budget.
FAMILY_BUDGETS = (2 * 1024, 8 * 1024)


def _family_factory(family, budget):
    return lambda: registry.build(family, budget)


FAMILY_FACTORIES = {
    f"{spec.name}@{budget // 1024}K": _family_factory(spec.name, budget)
    for spec in registry.specs()
    if spec.batch_kernel
    for budget in FAMILY_BUDGETS
}

#: The registry's families plus shape variants that stress the
#: index/counter/delay parameter space of each kernel.
FACTORIES = {
    **FAMILY_FACTORIES,
    "bimodal": lambda: BimodalPredictor(512),
    "bimodal_3bit": lambda: BimodalPredictor(256, counter_bits=3),
    "gshare": lambda: GsharePredictor(1024),
    "gshare_short_history": lambda: GsharePredictor(1024, history_length=4),
    "gshare_fast": lambda: GshareFastPredictor(entries=4096, pht_latency=3),
    "gshare_fast_delayed": lambda: GshareFastPredictor(
        entries=1024, pht_latency=2, update_delay=16
    ),
    "gshare_fast_delay_1": lambda: GshareFastPredictor(
        entries=256, pht_latency=1, update_delay=1
    ),
    "bimode": lambda: BiModePredictor(512),
    "bimode_fast_tiny": lambda: BiModeFastPredictor(16, choice_entries=8, pht_latency=2),
    "egskew_tiny": lambda: EGskewPredictor(16),
    "2bcgskew_tiny": lambda: TwoBcGskewPredictor(16),
    "2bcgskew_equal_histories": lambda: TwoBcGskewPredictor(
        256, short_history=8, long_history=8
    ),
    "tournament_tiny": lambda: TournamentPredictor(
        global_entries=16,
        local_histories=8,
        local_history_length=4,
        local_pht_entries=16,
        chooser_entries=32,
    ),
    "loop_4_entries": lambda: LoopPredictor(4),
    "perceptron_global_only": lambda: PerceptronPredictor(
        64, global_history=16, local_history=0
    ),
    "perceptron_tiny": lambda: PerceptronPredictor(
        3, global_history=6, local_history=3, local_history_entries=4
    ),
    "multicomponent_tiny": lambda: MultiComponentPredictor(
        [
            GsharePredictor(16, history_length=2),
            LoopPredictor(4),
            LocalPredictor(4, 3, pht_entries=8),
            BimodalPredictor(16),
        ],
        selector_entries=4,
        selector_bits=3,
    ),
}


def _assert_exact(factory, stream, chunk_branches=1 << 12):
    pcs = [pc for pc, _ in stream]
    takens = [taken for _, taken in stream]
    report = diff_engines(factory, pcs, takens, chunk_branches=chunk_branches)
    assert report.matches, report.describe()


def warmed(factory, stream):
    """``factory``, each predictor it builds first run scalar over ``stream``:
    both engines then start from a state a scalar run leaves."""

    def build():
        predictor = factory()
        run_scalar(predictor, [pc for pc, _ in stream], [taken for _, taken in stream])
        return predictor

    return build


#: A scalar prefix that saturates counters (a long biased run), trains
#: selection counters and leaves loop entries mid-trip (it stops four
#: iterations into a nine-trip loop).
WARM_PREFIX = biased_stream(600, 0.97) + loop_stream(reps=5, trips=9)[:-4]


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_synthetic_streams_bit_exact(name):
    factory = FACTORIES[name]
    _assert_exact(factory, biased_stream(3000, 0.9))
    _assert_exact(factory, alternating_stream(3000))
    _assert_exact(factory, loop_stream(reps=60, trips=9))


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_interleaved_branches_bit_exact(name):
    """Many static branches sharing tables — the aliasing-heavy case."""
    rng = random.Random(13)
    pool = [0x40_0000 + 4 * rng.randrange(800) for _ in range(96)]
    stream = [(rng.choice(pool), rng.random() < 0.6) for _ in range(8000)]
    _assert_exact(FACTORIES[name], stream)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_workload_trace_bit_exact(name, small_trace):
    pcs, takens = small_trace.branch_arrays()
    report = diff_engines(FACTORIES[name], pcs, takens)
    assert report.matches, report.describe()


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_golden_stream_bit_exact(name):
    """Replay the recorded stream pinned in tests/golden/branch_stream.csv."""
    lines = GOLDEN_STREAM.read_text().splitlines()[1:]
    stream = []
    for line in lines:
        pc, taken = line.split(",")
        stream.append((int(pc, 16), taken == "1"))
    assert len(stream) >= 1000
    _assert_exact(FACTORIES[name], stream)


@pytest.mark.parametrize("chunk", [1, 7, 64, 777, 100_000])
def test_chunk_size_invariance(chunk):
    """The chunk size is an implementation detail: any value, including ones
    that straddle the stream unevenly, must give identical results — for
    every family, from cold and from a warm start, and for the
    delayed-update gshare.fast."""
    stream = loop_stream(reps=40, trips=7) + biased_stream(1500, 0.8)
    _assert_exact(FACTORIES["gshare"], stream, chunk_branches=chunk)
    _assert_exact(FACTORIES["gshare_fast_delayed"], stream, chunk_branches=chunk)
    rng = random.Random(chunk)
    pool = [0x40_0000 + 4 * rng.randrange(64) for _ in range(12)]
    mixed = loop_stream(reps=20, trips=7) + [
        (rng.choice(pool), rng.random() < 0.7) for _ in range(500)
    ]
    for name in FAMILY_FACTORIES:
        _assert_exact(FACTORIES[name], mixed, chunk_branches=chunk)
        _assert_exact(warmed(FACTORIES[name], WARM_PREFIX), mixed, chunk_branches=chunk)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.tuples(st.integers(0, 31), st.booleans()), max_size=400),
    prefix=st.lists(st.tuples(st.integers(0, 31), st.booleans()), max_size=300),
    chunk=st.sampled_from([1, 3, 7, 50, 4096]),
    name=st.sampled_from(sorted(FACTORIES)),
)
def test_random_traces_bit_exact(data, prefix, chunk, name):
    """Hypothesis-generated streams over a small PC pool (small pools
    maximize table aliasing, the hardest case for the scan), empty ones
    included, chunked down to one branch, from the state a scalar run of
    a generated prefix leaves (saturated counters, selection counters
    mid-training, loop entries mid-trip)."""
    stream = [(0x40_0000 + 4 * slot, taken) for slot, taken in data]
    warm = [(0x40_0000 + 4 * slot, taken) for slot, taken in prefix]
    _assert_exact(warmed(FACTORIES[name], warm), stream, chunk_branches=chunk)


def test_empty_and_single_branch_streams():
    for factory in FACTORIES.values():
        _assert_exact(factory, [])
        _assert_exact(factory, [(0x40_0000, True)])


def test_supports_batch_is_exact_type():
    """Subclasses may override behaviour the kernels don't model; they must
    fall back to the scalar engine rather than be silently mis-evaluated."""

    class TweakedGshare(GsharePredictor):
        pass

    class TweakedPerceptron(PerceptronPredictor):
        pass

    assert supports_batch(GsharePredictor(1024))
    assert not supports_batch(TweakedGshare(1024))
    assert supports_batch(PerceptronPredictor(256, global_history=12))
    assert not supports_batch(TweakedPerceptron(256, global_history=12))


def test_every_family_declares_a_kernel():
    """Every family shipped with the package has a batch kernel, and the
    engine implements exactly the declared set (test-only families, such
    as the toy family, may stay scalar)."""
    shipped = [spec for spec in registry.specs() if spec.module.startswith("repro.")]
    assert {spec.name for spec in shipped if spec.batch_kernel is None} == set()
    assert {spec.batch_kernel for spec in shipped} == set(KERNELS)


def test_multicomponent_with_unmodelled_component_falls_back(small_trace):
    """A component type no kernel models exactly (here a subclass) makes
    the composite scalar-only: ``auto`` resolves to the scalar engine and
    still gives the scalar result."""

    class TweakedBimodal(BimodalPredictor):
        pass

    def build(component):
        return MultiComponentPredictor([component(256), GsharePredictor(1024)])

    assert supports_batch(build(BimodalPredictor))
    assert not supports_batch(build(TweakedBimodal))
    # Modelled components, but a selection table too wide to tabulate.
    wide = MultiComponentPredictor([BimodalPredictor(16) for _ in range(5)], selector_bits=4)
    assert not supports_batch(wide)
    auto = measure_accuracy(build(TweakedBimodal), small_trace, engine="auto")
    scalar = measure_accuracy(build(TweakedBimodal), small_trace, engine="scalar")
    assert auto == scalar


def clip_stream(n=24_000, period=122, seed=5):
    """Two branches, one always taken and one never, each seen once every
    ``period`` branches among random-outcome branches on a third weight
    row.  With a 60-bit global history their inputs are noise (the other
    one is always older than 60 branches) and θ = 129 exceeds the weight
    range, so their bias weights climb into the +127 and -128 clips and
    keep training there."""
    rng = random.Random(seed)
    stream = []
    for i in range(n):
        if i % period == 0:
            stream.append((0x40_0000, True))
        elif i % period == period // 2:
            stream.append((0x40_0004, False))
        else:
            stream.append((0x40_0008 + 12 * rng.randrange(16), rng.random() < 0.5))
    return stream


@pytest.mark.parametrize("pc_offset", [0, 1 << 30])
def test_perceptron_weight_clip_bit_exact(pc_offset):
    """The scalar reference reaches both weight bounds on this stream, and
    the batch engine's clipping matches it exactly — with low PCs and with
    PCs that set bit 30, which the weight-row hash folds in."""

    def factory():
        return PerceptronPredictor(3, global_history=60, local_history=0)

    stream = [(pc + pc_offset, taken) for pc, taken in clip_stream()]
    reference = factory()
    run_scalar(reference, [pc for pc, _ in stream], [taken for _, taken in stream])
    assert reference.weights.max() == WEIGHT_MAX
    assert reference.weights.min() == WEIGHT_MIN
    _assert_exact(factory, stream, chunk_branches=999)


def test_uncommitted_run_leaves_predictor_untouched(small_trace):
    """``commit=False`` computes the stream without touching any state."""
    pcs, takens = small_trace.branch_arrays()
    for name, factory in FAMILY_FACTORIES.items():
        predictor = factory()
        before = predictor.state()
        evaluate_stream(predictor, pcs, takens, commit=False)
        assert state_mismatches(before, predictor.state()) == [], name


def test_batch_refuses_mid_prediction(small_trace):
    """The scalar protocol's in-flight state cannot be represented by the
    batch engine; evaluating mid-prediction is a protocol error."""
    predictor = GsharePredictor(1024)
    predictor.predict(0x40_0000)
    pcs, takens = small_trace.branch_arrays()
    with pytest.raises(ProtocolError):
        evaluate_stream(predictor, pcs, takens)


def test_batch_matches_scalar_measure_accuracy(small_trace):
    """The harness-level entry points agree, including warmup handling."""
    scalar = measure_accuracy(
        GsharePredictor(4096), small_trace, warmup_branches=500, engine="scalar"
    )
    batch = measure_accuracy(
        GsharePredictor(4096), small_trace, warmup_branches=500, engine="batch"
    )
    assert scalar == batch


def test_evaluate_trace_counts(small_trace):
    result = evaluate_trace(GsharePredictor(4096), small_trace)
    assert len(result.predictions) == small_trace.conditional_branch_count
    np.testing.assert_array_equal(
        result.outcomes, small_trace.branch_arrays()[1]
    )


def test_batch_predictor_usable_after_writeback(small_trace):
    """After a batch run the predictor must be a valid scalar predictor:
    continuing with predict/update equals having run scalar throughout —
    and a batch run may start from any state a scalar run leaves."""
    pcs, takens = small_trace.branch_arrays()
    half = len(pcs) // 2
    for name in [*FAMILY_FACTORIES, "gshare_fast_delayed"]:
        reference = FACTORIES[name]()
        expected = run_scalar(reference, pcs, takens)
        for scalar_first in (False, True):
            hybrid = FACTORIES[name]()
            if scalar_first:
                head = run_scalar(hybrid, pcs[:half], takens[:half])
                tail = evaluate_stream(hybrid, pcs[half:], takens[half:]).predictions
            else:
                head = evaluate_stream(hybrid, pcs[:half], takens[:half]).predictions
                tail = run_scalar(hybrid, pcs[half:], takens[half:])
            where = f"{name}, scalar first: {scalar_first}"
            np.testing.assert_array_equal(
                np.concatenate([head, tail]), expected, err_msg=where
            )
            assert state_mismatches(reference.state(), hybrid.state()) == [], where
