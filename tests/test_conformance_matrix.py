"""Cross-predictor conformance matrix.

Every predictor the factory can build (plus the pipelined ``repro.core``
families) must honour one shared contract, regardless of internal
organization:

* **protocol** — strict predict-then-update alternation, enforced with
  :class:`ProtocolError` on every violation;
* **determinism** — two instances fed the same trace agree exactly,
  branch for branch (the whole pipeline is a pure function of its seeds);
* **sizing** — the built predictor fits the requested hardware budget
  (with the 5% allowance the sizing layer grants for non-table state such
  as history registers and pipeline latches), across the budget ladder;
* **peek neutrality** — ``peek()`` never disturbs predictor state: a twin
  instance bombarded with peeks stays bit-identical (prediction stream and
  final table contents) to an undisturbed one;
* **sweep equality** — the parallel sweep executor produces exactly the
  cells the serial path produces, for every family at once;
* **representation equality** — replaying a trace from the store's
  columnar (SoA) arrays yields byte-identical accuracy counts to the
  ``Block``-object replay, on both the scalar and batch engines.

The family list comes from the declarative registry, so a newly registered
family is enrolled in every check automatically.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ProtocolError
from repro.harness.sweep import accuracy_sweep, build_family
from repro.predictors import registry

#: Every registered family — the registry is the authoritative list.
ALL_FAMILIES = registry.family_names()

CONFORMANCE_BUDGET = 8 * 1024

#: Budget ladder sample for the sizing checks (2KB .. 512KB).
BUDGET_LADDER = [2 * 1024, 8 * 1024, 64 * 1024, 512 * 1024]


def table_digests(predictor) -> dict[str, bytes]:
    """Byte-exact fingerprints of the predictor's full ``state()``: counter
    tables, histories, weights, loop entries, composite internals, stats."""
    return {name: values.tobytes() for name, values in predictor.state().items()}


def branch_stream(trace, limit=1200):
    """The first ``limit`` (pc, taken) conditional branches of ``trace``."""
    stream = []
    for pc, taken in trace.conditional_branches():
        stream.append((pc, taken))
        if len(stream) >= limit:
            break
    return stream


@pytest.mark.parametrize("family", ALL_FAMILIES)
class TestPredictorContract:
    def test_predict_twice_raises(self, family):
        predictor = build_family(family, CONFORMANCE_BUDGET)
        predictor.predict(0x4000)
        with pytest.raises(ProtocolError):
            predictor.predict(0x4004)

    def test_update_without_predict_raises(self, family):
        predictor = build_family(family, CONFORMANCE_BUDGET)
        with pytest.raises(ProtocolError):
            predictor.update(0x4000, True)

    def test_update_wrong_pc_raises(self, family):
        predictor = build_family(family, CONFORMANCE_BUDGET)
        predictor.predict(0x4000)
        with pytest.raises(ProtocolError):
            predictor.update(0x4008, True)

    def test_predict_then_update_roundtrip(self, family):
        predictor = build_family(family, CONFORMANCE_BUDGET)
        prediction = predictor.predict(0x4000)
        assert isinstance(prediction, bool)
        correct = predictor.update(0x4000, prediction)
        assert correct is True
        assert predictor.stats.predictions == 1
        assert predictor.stats.mispredictions == 0

    def test_two_instances_agree_exactly(self, family, small_trace):
        """Seeded determinism: identical instances on an identical trace
        produce the identical per-branch prediction stream."""
        stream = branch_stream(small_trace)
        first = build_family(family, CONFORMANCE_BUDGET)
        second = build_family(family, CONFORMANCE_BUDGET)
        for pc, taken in stream:
            assert first.predict(pc) == second.predict(pc)
            assert first.update(pc, taken) == second.update(pc, taken)
        assert first.stats.predictions == second.stats.predictions == len(stream)
        assert first.stats.mispredictions == second.stats.mispredictions

    @pytest.mark.parametrize("budget", BUDGET_LADDER)
    def test_sizing_within_budget(self, family, budget):
        predictor = build_family(family, budget)
        assert 0 < predictor.storage_bits
        # Same allowance as the sizing layer: tables fill the budget,
        # history registers / pipeline latches may add a few percent.
        assert predictor.storage_bytes <= budget * 1.05

    def test_sizing_monotonic(self, family):
        small = build_family(family, 4 * 1024).storage_bits
        large = build_family(family, 64 * 1024).storage_bits
        assert large > small

    def test_peek_is_state_neutral(self, family, small_trace):
        """A twin instance peppered with ``peek()`` calls stays bit-identical
        to an undisturbed one: same prediction stream, same final state.

        The twin construction also catches drift in state a family might
        leave out of ``state()``: any disturbed state would surface as a
        diverged prediction somewhere down the stream.
        """
        spec = registry.get_spec(family)
        if not spec.state_neutral_peek:
            pytest.skip(f"{family} opts out of state-neutral peek")
        stream = branch_stream(small_trace, limit=600)
        plain = build_family(family, CONFORMANCE_BUDGET)
        peeked = build_family(family, CONFORMANCE_BUDGET)
        for i, (pc, taken) in enumerate(stream):
            peeked.peek(pc)
            assert plain.predict(pc) == peeked.predict(pc)
            peeked.peek(stream[(i * 7) % len(stream)][0])  # off-branch peek
            assert plain.update(pc, taken) == peeked.update(pc, taken)
            peeked.peek(pc)
        assert table_digests(plain) == table_digests(peeked)
        assert plain.stats.mispredictions == peeked.stats.mispredictions

    def test_peek_preserves_table_digests(self, family):
        """Direct digest check: a burst of peeks on a fresh predictor leaves
        its full state byte-identical."""
        predictor = build_family(family, CONFORMANCE_BUDGET)
        before = table_digests(predictor)
        for i in range(64):
            predictor.peek(0x4000 + i * 4)
        assert table_digests(predictor) == before


@pytest.mark.parametrize("family", ALL_FAMILIES)
class TestColumnarReplayConformance:
    """Trace-representation equivalence: every family must produce
    byte-identical accuracy counts whether the trace is replayed from
    ``Block`` objects or from the store's columnar arrays."""

    def test_scalar_engine_counts_identical(self, family, small_trace):
        from repro.harness.experiment import measure_accuracy
        from repro.workloads.store import ColumnarTrace

        columnar = ColumnarTrace.from_trace(small_trace)
        blocks = measure_accuracy(
            build_family(family, CONFORMANCE_BUDGET), small_trace, engine="scalar"
        )
        columns = measure_accuracy(
            build_family(family, CONFORMANCE_BUDGET), columnar, engine="scalar"
        )
        assert blocks.branches == columns.branches
        assert blocks.mispredictions == columns.mispredictions
        assert blocks.misprediction_percent == columns.misprediction_percent

    def test_batch_engine_counts_identical(self, family, small_trace):
        from repro.harness.experiment import measure_accuracy
        from repro.workloads.store import ColumnarTrace

        if not registry.get_spec(family).batch_kernel:
            pytest.skip(f"{family} has no batch kernel")
        columnar = ColumnarTrace.from_trace(small_trace)
        blocks = measure_accuracy(
            build_family(family, CONFORMANCE_BUDGET), small_trace, engine="batch"
        )
        columns = measure_accuracy(
            build_family(family, CONFORMANCE_BUDGET), columnar, engine="batch"
        )
        assert blocks.branches == columns.branches
        assert blocks.mispredictions == columns.mispredictions
        assert blocks.misprediction_percent == columns.misprediction_percent


@pytest.mark.parametrize("family", ALL_FAMILIES)
class TestResultStoreConformance:
    """Result-store rows of the matrix: for every registered family, a cell
    served from the cache is byte-identical to a fresh recomputation — on
    both the scalar and batch engines — and a sizing-config or engine
    change can never produce a false hit."""

    @pytest.fixture
    def result_store_env(self, tmp_path, monkeypatch):
        from repro.harness.resultstore import reset_result_store_stats
        from repro.workloads.spec2000 import clear_trace_cache

        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "results"))
        clear_trace_cache()
        reset_result_store_stats()
        yield
        clear_trace_cache()
        reset_result_store_stats()

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_cached_equals_fresh(self, family, engine, result_store_env, monkeypatch):
        from repro.harness.resultstore import result_store_stats

        if engine == "batch" and not registry.get_spec(family).batch_kernel:
            pytest.skip(f"{family} has no batch kernel")
        kwargs = dict(
            families=[family],
            budgets=[CONFORMANCE_BUDGET],
            benchmarks=["gcc"],
            instructions=20_000,
            engine=engine,
        )
        cold = accuracy_sweep(**kwargs)
        assert result_store_stats()["writes"] == 1
        warm = accuracy_sweep(**kwargs)
        assert result_store_stats()["hits"] == 1
        assert warm == cold  # frozen-dataclass equality: float bit patterns
        # And the cache never drifted from an uncached recomputation.
        monkeypatch.delenv("REPRO_RESULT_STORE")
        fresh = accuracy_sweep(**kwargs)
        assert fresh == cold

    def test_engine_change_misses_key(self, family):
        from repro.harness.resultstore import accuracy_result_key

        scalar = accuracy_result_key("gcc", family, CONFORMANCE_BUDGET, 20_000, "scalar", 0.2)
        batch = accuracy_result_key("gcc", family, CONFORMANCE_BUDGET, 20_000, "batch", 0.2)
        assert scalar != batch

    def test_sizing_config_change_misses_key(self, family):
        """The key digests the serialized sizing config: perturbing any
        config field (as a sizing-rule change would) yields a new key."""
        import json

        from repro.harness.resultstore import accuracy_key_payload, result_digest

        payload = accuracy_key_payload("gcc", family, CONFORMANCE_BUDGET, 20_000, "scalar", 0.2)
        base = result_digest(payload)
        config = payload["spec"]["config"]
        assert config, f"family {family} serializes an empty sizing config"
        for field in sorted(config):
            mutated = json.loads(json.dumps(payload))
            value = mutated["spec"]["config"][field]
            if isinstance(value, bool):
                mutated["spec"]["config"][field] = not value
            elif isinstance(value, (int, float)):
                mutated["spec"]["config"][field] = value + 1
            else:
                mutated["spec"]["config"][field] = f"{value}x"
            assert result_digest(mutated) != base, field


def test_serial_and_parallel_sweeps_agree_for_every_family():
    """The whole matrix through both sweep engines: cell-for-cell equality
    (including float bit patterns) between jobs=1 and jobs=2."""
    kwargs = dict(
        families=ALL_FAMILIES,
        budgets=[CONFORMANCE_BUDGET],
        benchmarks=["gcc", "eon"],
        instructions=20_000,
    )
    serial = accuracy_sweep(**kwargs, jobs=1)
    parallel = accuracy_sweep(**kwargs, jobs=2)
    assert serial == parallel
    assert [
        (cell.benchmark, cell.family, cell.budget_bytes) for cell in serial
    ] == [
        ("gcc", family, CONFORMANCE_BUDGET) for family in ALL_FAMILIES
    ] + [
        ("eon", family, CONFORMANCE_BUDGET) for family in ALL_FAMILIES
    ]


#: The scenario-diverse workload axis (interpreter-like, server-like,
#: adversarial period-mixing).  Pinned to the catalog's "scenario" kind so
#: a newly registered scenario profile auto-enrolls in these rows exactly
#: like a newly registered predictor family enrolls in the rows above.
def scenario_benchmarks() -> list[str]:
    from repro.workloads.catalog import workload_names

    return workload_names(kind="scenario")


def test_scenario_axis_is_registered():
    """The three shipped scenario profiles resolve through the catalog —
    and through ``get_profile``, which every harness consumer funnels
    through — without any harness edits."""
    from repro.workloads import get_profile

    names = scenario_benchmarks()
    assert names == ["interp", "server", "adversarial"]
    for name in names:
        assert get_profile(name).name == name


@pytest.mark.parametrize("workload", ["interp", "server", "adversarial"])
class TestScenarioProfileConformance:
    """Scenario-workload rows: every registered family must produce
    engine-identical counts on every scenario profile, exactly as it must
    on the SPEC stand-ins.  The family list is ``registry.family_names()``
    so future families auto-enroll; the benchmark list is the catalog's
    scenario kind so future profiles do too."""

    def test_all_families_scalar_equals_batch(self, workload):
        from repro.harness.experiment import measure_accuracy
        from repro.workloads import spec2000_trace

        trace = spec2000_trace(workload, instructions=20_000, seed=3)
        for family in ALL_FAMILIES:
            scalar = measure_accuracy(
                build_family(family, CONFORMANCE_BUDGET), trace, engine="scalar"
            )
            assert scalar.branches > 0, family
            if not registry.get_spec(family).batch_kernel:
                continue
            batch = measure_accuracy(
                build_family(family, CONFORMANCE_BUDGET), trace, engine="batch"
            )
            assert (scalar.branches, scalar.mispredictions) == (
                batch.branches,
                batch.mispredictions,
            ), family


def test_serial_and_parallel_sweeps_agree_on_scenario_profiles():
    """Serial/parallel byte-identity for the scenario axis across every
    registered family, mirroring the SPEC-benchmark check above."""
    benchmarks = scenario_benchmarks()
    kwargs = dict(
        families=ALL_FAMILIES,
        budgets=[CONFORMANCE_BUDGET],
        benchmarks=benchmarks,
        instructions=12_000,
    )
    serial = accuracy_sweep(**kwargs, jobs=1)
    parallel = accuracy_sweep(**kwargs, jobs=2)
    assert serial == parallel
    assert [(cell.benchmark, cell.family) for cell in serial] == [
        (benchmark, family) for benchmark in benchmarks for family in ALL_FAMILIES
    ]
