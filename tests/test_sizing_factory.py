"""Tests for budget sizing rules and the predictor factory."""

from __future__ import annotations

import pytest

from repro.common.errors import BudgetError, ConfigurationError
from repro.core.gshare_fast import build_gshare_fast
from repro.predictors import registry
from repro.predictors.factory import build_predictor
from repro.predictors.sizing import (
    GSHARE_MAX_HISTORY,
    floor_pow2,
    perceptron_history_length,
    size_2bcgskew,
    size_bimodal,
    size_bimode,
    size_bimode_fast,
    size_egskew,
    size_gshare,
    size_gshare_fast,
    size_loop,
    size_multicomponent,
    size_perceptron,
    size_tournament,
)

KIB = 1024
BUDGETS = [2 * KIB, 8 * KIB, 32 * KIB, 128 * KIB, 512 * KIB]
ALL_FAMILIES = registry.family_names()


class TestSizing:
    def test_floor_pow2(self):
        assert floor_pow2(1) == 1
        assert floor_pow2(1023) == 512
        assert floor_pow2(1024) == 1024
        with pytest.raises(BudgetError):
            floor_pow2(0)

    def test_gshare_fills_budget(self):
        config = size_gshare(64 * KIB)
        assert config.entries == 64 * KIB * 4
        assert config.history_length == GSHARE_MAX_HISTORY

    def test_gshare_small_budget_history(self):
        config = size_gshare(1 * KIB)
        assert config.history_length == min(12, GSHARE_MAX_HISTORY)

    def test_gshare_rejects_tiny_budget(self):
        with pytest.raises(BudgetError):
            size_gshare(4)

    def test_bimodal_fills_budget(self):
        config = size_bimodal(16 * KIB)
        # 4 two-bit counters per byte, power-of-two table.
        assert config.entries == 16 * KIB * 4

    def test_bimode_three_tables(self):
        config = size_bimode(48 * KIB)
        # 3 tables of 2-bit counters must fit in the budget.
        assert 3 * config.direction_entries * 2 <= 48 * KIB * 8

    def test_gskew_banks(self):
        config = size_2bcgskew(64 * KIB)
        assert 4 * config.bank_entries * 2 <= 64 * KIB * 8
        assert config.short_history < config.long_history

    def test_egskew_three_banks(self):
        config = size_egskew(12 * KIB)
        # Three equal banks of 2-bit counters fit the budget; history
        # matches the bank index width (the predictor's own default).
        assert 3 * config.bank_entries * 2 <= 12 * KIB * 8
        assert config.history_length == config.bank_entries.bit_length() - 1

    def test_tournament_ev6_proportions(self):
        config = size_tournament(32 * KIB)
        assert config.chooser_entries == config.global_entries
        assert config.local_histories == max(config.global_entries // 4, 64)
        assert config.local_pht_entries == config.local_histories
        # The EV6 local history is 10 bits regardless of budget.
        assert config.local_history_length == 10
        assert size_tournament(512 * KIB).local_history_length == 10

    def test_loop_fills_budget(self):
        config = size_loop(8 * KIB)
        # 31-bit entries; at least the 64-entry floor.
        assert config.entries * 31 <= 8 * KIB * 8
        assert config.confidence_threshold == 2
        # Tiny budgets clamp to the 64-entry floor.
        assert size_loop(100).entries == 64

    def test_gshare_fast_shares_gshare_pht(self):
        config = size_gshare_fast(64 * KIB, update_delay=8)
        assert config.entries == size_gshare(64 * KIB).entries
        assert config.update_delay == 8
        assert size_gshare_fast(64 * KIB).update_delay == 0

    def test_bimode_fast_choice_capped(self):
        config = size_bimode_fast(64 * KIB)
        assert config.choice_entries == 1024
        # Direction tables split what the choice table leaves.
        choice_bytes = 1024 * 2 // 8
        assert 2 * config.direction_entries * 2 <= (64 * KIB - choice_bytes) * 8

    def test_perceptron_history_table(self):
        assert perceptron_history_length(16 * KIB) == 36
        assert perceptron_history_length(64 * KIB) == 59
        # off-grid budgets interpolate between neighbours
        assert 36 <= perceptron_history_length(24 * KIB) <= 59

    def test_perceptron_budget_respected(self):
        config = size_perceptron(32 * KIB)
        history = config.global_history + config.local_history
        weight_bytes = config.num_perceptrons * (history + 1)
        local_bytes = (config.local_history_entries * config.local_history + 7) // 8
        assert weight_bytes + local_bytes <= 32 * KIB

    def test_multicomponent_history_caps(self):
        config = size_multicomponent(512 * KIB)
        assert config.gshare_long_history <= GSHARE_MAX_HISTORY


class TestFactory:
    def test_families_list(self):
        families = registry.family_names()
        for expected in ("gshare", "bimode", "2bcgskew", "perceptron", "multicomponent"):
            assert expected in families

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            build_predictor("tage", 64 * KIB)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_storage_within_budget(self, family, budget):
        """Every built predictor must fit its hardware budget (allowing a
        small overhead for history registers and selector counters)."""
        predictor = build_predictor(family, budget)
        assert predictor.storage_bytes <= budget * 1.05

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_storage_grows_with_budget(self, family):
        small = build_predictor(family, 8 * KIB).storage_bits
        large = build_predictor(family, 128 * KIB).storage_bits
        assert large > small

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_gshare_fast_budget(self, budget):
        predictor = build_gshare_fast(budget)
        assert predictor.storage_bytes <= budget * 1.05
        assert predictor.pht_latency >= 1

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_built_predictors_run(self, family):
        predictor = build_predictor(family, 16 * KIB)
        for i in range(32):
            pc = 0x1000 + (i % 4) * 4
            predictor.predict(pc)
            predictor.update(pc, i % 3 != 0)
        assert predictor.stats.predictions == 32
