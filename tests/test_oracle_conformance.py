"""Ground-truth conformance: measured misprediction rates vs closed-form math.

Every other correctness gate in this repo (golden files, differential
batch, cached-vs-fresh stores) checks the pipeline against *itself*.  This
suite checks it against something external: the exact Markov-chain
misprediction rates of Morris-Pratt/KMP string matching over memoryless
random texts (:mod:`repro.workloads.oracle`).  A systematic error anywhere
in the stack — trace generation, predictor semantics, engine kernels,
warmup accounting — shows up as a measured rate outside the analytic
confidence interval, even though every self-referential gate would still
pass.

The matrix: every registered oracle kernel x {bimodal, gshare} x
{scalar, batch} x seeds {7, 23}.  Seeds are pinned so the statistical
assertions are deterministic in CI.  The fault drill generates a
deliberately-biased trace through the profile's ``fault_bias`` hook and
asserts the same gate *rejects* it — a gate that cannot trip is not a
gate.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness.experiment import measure_accuracy
from repro.predictors import registry
from repro.workloads import get_profile, spec2000_trace, trace_digest
from repro.workloads.oracle import (
    ORACLE_FAMILIES,
    bimodal_oracle,
    counter_rate_iid,
    oracle_bound,
)
from repro.workloads.spec2000 import _generate_trace, clear_trace_cache
from repro.workloads.stringmatch import StringMatchProfile, stringmatch_profiles

#: Pinned experiment shape — the whole suite is deterministic under these.
ORACLE_BUDGET = 2048
TRACE_SEED = 7
#: The measured-rate gate runs on every seed here; the shape checks and the
#: fault drill use TRACE_SEED.
ORACLE_SEEDS = (TRACE_SEED, 23)
TRACE_BRANCHES = 60_000
WARMUP_FRACTION = 0.25

#: A cell only counts as a *meaningful* gate when its acceptance band is
#: tighter than this; the suite asserts most cells qualify so the gate
#: cannot silently degenerate into tautology via model slack.
MEANINGFUL_TOLERANCE = 0.08

ORACLE_WORKLOADS = sorted(stringmatch_profiles())

#: Tight cells used for the fault drill (their clean tolerances are a few
#: percent, so a 25% outcome-flip bias overshoots them by construction).
FAULT_DRILL_CELLS = ("mp_aab_b7", "kmp_ab_u2")
FAULT_BIAS = 0.25


def oracle_trace(name: str, seed: int = TRACE_SEED):
    """The pinned trace for one oracle workload and seed (LRU-cached by the
    workload layer, so each is executed once per pytest run)."""
    return spec2000_trace(name, branches=TRACE_BRANCHES, seed=seed)


def scored_split(trace) -> tuple[int, int]:
    """(warmup, scored) branch counts under the pinned warmup fraction."""
    total = sum(1 for _ in trace.conditional_branches())
    warmup = int(total * WARMUP_FRACTION)
    return warmup, total - warmup


@pytest.mark.parametrize("name", ORACLE_WORKLOADS)
class TestOracleWorkloadShape:
    def test_trace_is_valid_with_single_conditional_site(self, name):
        """The oracle's per-state decomposition requires exactly one static
        conditional branch (no table aliasing, no history pollution)."""
        trace = oracle_trace(name)
        trace.validate()
        sites = {pc for pc, _ in trace.conditional_branches()}
        assert len(sites) == 1

    def test_registered_in_catalog(self, name):
        profile = get_profile(name)
        assert isinstance(profile, StringMatchProfile)
        assert profile.name == name
        assert profile.fault_bias == 0.0


def _bound_cells():
    """Every (workload, family, engine, seed) cell of the gate.  Seed 7's
    ids carry no seed, as they did before the seed axis."""
    for seed in ORACLE_SEEDS:
        suffix = "" if seed == TRACE_SEED else f"-seed{seed}"
        for name in ORACLE_WORKLOADS:
            for family in ORACLE_FAMILIES:
                for engine in ("scalar", "batch"):
                    yield pytest.param(
                        name, family, engine, seed, id=f"{name}-{family}-{engine}{suffix}"
                    )


@pytest.mark.parametrize("name,family,engine,seed", list(_bound_cells()))
def test_measured_rate_within_analytic_bound(name, family, engine, seed):
    """The ground-truth gate: measured rate inside the closed-form CI."""
    profile = get_profile(name)
    trace = oracle_trace(name, seed)
    warmup, scored = scored_split(trace)
    bound = oracle_bound(profile, family, ORACLE_BUDGET)
    result = measure_accuracy(
        registry.build(family, ORACLE_BUDGET),
        trace,
        warmup_branches=warmup,
        engine=engine,
    )
    deviation = abs(result.misprediction_rate - bound.rate)
    tolerance = bound.tolerance(scored)
    assert deviation <= tolerance, (
        f"{name}/{family}/{engine}/seed={seed}: measured {result.misprediction_rate:.4f} "
        f"vs analytic {bound.rate:.4f} (deviation {deviation:.4f} > "
        f"tolerance {tolerance:.4f})"
    )


def test_most_cells_are_meaningful_gates():
    """Model slack (window mass the gshare decomposition cannot certify)
    loosens some cells; the suite stays honest by requiring the majority
    of the matrix to have percent-level acceptance bands."""
    meaningful = 0
    total = 0
    for name in ORACLE_WORKLOADS:
        profile = get_profile(name)
        _, scored = scored_split(oracle_trace(name))
        for family in ORACLE_FAMILIES:
            total += 1
            if oracle_bound(profile, family, ORACLE_BUDGET).tolerance(scored) < MEANINGFUL_TOLERANCE:
                meaningful += 1
    assert meaningful >= (3 * total) // 4, f"only {meaningful}/{total} tight cells"


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
@pytest.mark.parametrize("cell", FAULT_DRILL_CELLS)
def test_fault_injected_trace_trips_the_gate(cell, family):
    """A deliberately-biased trace (outcomes flipped with probability
    ``FAULT_BIAS``, matcher state advanced on the true comparison) must
    land *outside* the fault-free analytic bound for every family."""
    biased = dataclasses.replace(stringmatch_profiles()[cell], fault_bias=FAULT_BIAS)
    trace = _generate_trace(biased, TRACE_BRANCHES * 6, TRACE_SEED)
    warmup, scored = scored_split(trace)
    bound = oracle_bound(biased, family, ORACLE_BUDGET)  # fault-free model
    result = measure_accuracy(
        registry.build(family, ORACLE_BUDGET),
        trace,
        warmup_branches=warmup,
        engine="scalar",
    )
    deviation = abs(result.misprediction_rate - bound.rate)
    tolerance = bound.tolerance(scored)
    assert deviation > tolerance, (
        f"fault drill failed to trip: {cell}/{family} deviation "
        f"{deviation:.4f} within tolerance {tolerance:.4f}"
    )


def test_fault_bias_changes_the_content_address():
    """The fault hook lives in the profile, so a biased trace can never be
    served from (or poison) a clean trace-store entry."""
    clean = stringmatch_profiles()["mp_ab_u2"]
    biased = dataclasses.replace(clean, fault_bias=FAULT_BIAS)
    instructions = TRACE_BRANCHES * 6
    assert trace_digest(clean, instructions, TRACE_SEED) != trace_digest(
        biased, instructions, TRACE_SEED
    )


def test_degenerate_pattern_reduces_to_closed_form_counter():
    """Pattern "a" makes comparison outcomes i.i.d., so the exact joint
    bimodal rate must collapse to the birth-death counter closed form —
    a self-check that the joint-chain machinery carries no hidden bias."""
    profile = StringMatchProfile(
        name="degenerate_a",
        pattern="a",
        algorithm="mp",
        source_kind="bernoulli",
        bernoulli_p=0.7,
    )
    q = 1.0 - 0.7  # taken = mismatch
    assert bimodal_oracle(profile).rate == pytest.approx(counter_rate_iid(q, bits=2), abs=1e-12)


class TestOracleWarmStart:
    """Satellite fix: generator-backed oracle workloads must warm-start
    byte-identically through the content-addressed trace store, and the
    in-process LRU must never serve an entry cached under a different
    store configuration."""

    def test_warm_start_is_byte_identical_and_execution_free(
        self, tmp_path, monkeypatch
    ):
        from repro.workloads import executor_run_count, warm_trace_store
        from repro.workloads.store import reset_store_stats

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "traces"))
        clear_trace_cache()
        reset_store_stats()
        name = "kmp_abab_u2"
        instructions = 30_000
        report = warm_trace_store(
            benchmarks=[name], instruction_counts=[instructions], seed=TRACE_SEED
        )
        assert report["generated"] == 1
        cold = spec2000_trace(name, instructions=instructions, seed=TRACE_SEED)
        clear_trace_cache()
        runs_before = executor_run_count()
        warm = spec2000_trace(name, instructions=instructions, seed=TRACE_SEED)
        assert executor_run_count() == runs_before  # loaded, not re-executed
        cold_pcs, cold_taken, *_ = cold.branch_arrays()
        warm_pcs, warm_taken, *_ = warm.branch_arrays()
        assert cold_pcs.tobytes() == warm_pcs.tobytes()
        assert cold_taken.tobytes() == warm_taken.tobytes()
        clear_trace_cache()

    def test_lru_key_tracks_store_configuration(self, tmp_path, monkeypatch):
        """A store enabled mid-process still receives the trace: the LRU
        entry cached without a store is not served in its place, and the
        store's entry holds the very same columns."""
        from repro.workloads.io import columns_checksum
        from repro.workloads.store import active_store, reset_store_stats, store_stats

        name = "mp_abab_u2"
        instructions = 30_000
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        clear_trace_cache()
        reset_store_stats()
        bare = spec2000_trace(name, instructions=instructions, seed=TRACE_SEED)
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "traces"))
        stored = spec2000_trace(name, instructions=instructions, seed=TRACE_SEED)
        assert stored is not bare
        assert store_stats()["writes"] == 1
        entry = active_store().load(get_profile(name), instructions, TRACE_SEED)
        assert entry is not None
        checksums = {
            columns_checksum(trace.name, trace.columns()) for trace in (bare, stored, entry)
        }
        assert len(checksums) == 1
        clear_trace_cache()
