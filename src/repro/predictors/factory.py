"""Predictor factory: (family name, hardware budget) -> configured predictor.

This is the entry point the harness and the examples use.  The mapping from
the paper's predictor names to implementations lives in the declarative
registry (:mod:`repro.predictors.registry`); this module registers the nine
classic families, each as a sizer plus a config -> predictor builder.  The
budget-sizing rules themselves are in :mod:`repro.predictors.sizing`.
"""

from __future__ import annotations

from repro.predictors import registry
from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.bimode import BiModePredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.gskew import EGskewPredictor, TwoBcGskewPredictor
from repro.predictors.local import LocalPredictor
from repro.predictors.loop import LoopPredictor
from repro.predictors.multicomponent import MultiComponentPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.registry import FamilySpec
from repro.predictors.sizing import (
    BimodalConfig,
    BiModeConfig,
    EGskewConfig,
    GshareConfig,
    GskewConfig,
    LoopConfig,
    MultiComponentConfig,
    PerceptronConfig,
    TournamentConfig,
    size_2bcgskew,
    size_bimodal,
    size_bimode,
    size_egskew,
    size_gshare,
    size_loop,
    size_multicomponent,
    size_perceptron,
    size_tournament,
)
from repro.predictors.tournament import TournamentPredictor


# -- config -> predictor builders ----------------------------------------------


def bimodal_from_config(config: BimodalConfig) -> BimodalPredictor:
    """Bimodal from a sized configuration."""
    return BimodalPredictor(entries=config.entries)


def gshare_from_config(config: GshareConfig) -> GsharePredictor:
    """gshare from a sized configuration."""
    return GsharePredictor(entries=config.entries, history_length=config.history_length)


def bimode_from_config(config: BiModeConfig) -> BiModePredictor:
    """Bi-Mode from a sized configuration."""
    return BiModePredictor(
        direction_entries=config.direction_entries,
        choice_entries=config.choice_entries,
        history_length=config.history_length,
    )


def twobcgskew_from_config(config: GskewConfig) -> TwoBcGskewPredictor:
    """2Bc-gskew from a sized configuration."""
    return TwoBcGskewPredictor(
        bank_entries=config.bank_entries,
        short_history=config.short_history,
        long_history=config.long_history,
    )


def egskew_from_config(config: EGskewConfig) -> EGskewPredictor:
    """e-gskew from a sized configuration."""
    return EGskewPredictor(
        bank_entries=config.bank_entries, history_length=config.history_length
    )


def perceptron_from_config(config: PerceptronConfig) -> PerceptronPredictor:
    """Perceptron from a sized configuration."""
    return PerceptronPredictor(
        num_perceptrons=config.num_perceptrons,
        global_history=config.global_history,
        local_history=config.local_history,
        local_history_entries=config.local_history_entries,
    )


def multicomponent_from_config(config: MultiComponentConfig) -> MultiComponentPredictor:
    """Evers multi-hybrid from a sized configuration."""
    # Order sets the tie-break priority of the selection counters: the
    # fast-training bimodal wins cold ties, specialized components take over
    # per branch as their counters rise.
    components: list[BranchPredictor] = [
        BimodalPredictor(entries=config.bimodal_entries),
        LoopPredictor(entries=config.loop_entries),
        LocalPredictor(
            history_entries=config.local_histories,
            history_length=config.local_history_length,
            pht_entries=config.local_pht_entries,
        ),
        GsharePredictor(
            entries=config.gshare_short_entries, history_length=config.gshare_short_history
        ),
        GsharePredictor(
            entries=config.gshare_long_entries, history_length=config.gshare_long_history
        ),
    ]
    return MultiComponentPredictor(components, selector_entries=config.selector_entries)


def tournament_from_config(config: TournamentConfig) -> TournamentPredictor:
    """EV6-style tournament from a sized configuration."""
    return TournamentPredictor(
        global_entries=config.global_entries,
        local_histories=config.local_histories,
        local_history_length=config.local_history_length,
        local_pht_entries=config.local_pht_entries,
        chooser_entries=config.chooser_entries,
    )


def loop_from_config(config: LoopConfig) -> LoopPredictor:
    """Standalone loop predictor from a sized configuration."""
    return LoopPredictor(
        entries=config.entries, confidence_threshold=config.confidence_threshold
    )


# -- registration --------------------------------------------------------------

# ``override_eligible`` mirrors the timing layer: only families with a
# latency model (repro.timing.latency) can play the slow side of an
# overriding pair.  ``batch_kernel`` names the bit-exact vectorized kernel
# in repro.batch.engine; every shipped family has one.

registry.register(
    FamilySpec(
        name="bimodal",
        config_type=BimodalConfig,
        sizer=size_bimodal,
        builder=bimodal_from_config,
        predictor_type=BimodalPredictor,
        batch_kernel="bimodal",
        override_eligible=True,
    )
)
registry.register(
    FamilySpec(
        name="gshare",
        config_type=GshareConfig,
        sizer=size_gshare,
        builder=gshare_from_config,
        predictor_type=GsharePredictor,
        batch_kernel="gshare",
        override_eligible=True,
    )
)
registry.register(
    FamilySpec(
        name="bimode",
        config_type=BiModeConfig,
        sizer=size_bimode,
        builder=bimode_from_config,
        predictor_type=BiModePredictor,
        batch_kernel="bimode",
        override_eligible=True,
    )
)
registry.register(
    FamilySpec(
        name="2bcgskew",
        config_type=GskewConfig,
        sizer=size_2bcgskew,
        builder=twobcgskew_from_config,
        predictor_type=TwoBcGskewPredictor,
        batch_kernel="2bcgskew",
        override_eligible=True,
    )
)
registry.register(
    FamilySpec(
        name="egskew",
        config_type=EGskewConfig,
        sizer=size_egskew,
        builder=egskew_from_config,
        predictor_type=EGskewPredictor,
        batch_kernel="egskew",
        override_eligible=True,
    )
)
registry.register(
    FamilySpec(
        name="perceptron",
        config_type=PerceptronConfig,
        sizer=size_perceptron,
        builder=perceptron_from_config,
        predictor_type=PerceptronPredictor,
        batch_kernel="perceptron",
        override_eligible=True,
    )
)
registry.register(
    FamilySpec(
        name="multicomponent",
        config_type=MultiComponentConfig,
        sizer=size_multicomponent,
        builder=multicomponent_from_config,
        predictor_type=MultiComponentPredictor,
        batch_kernel="multicomponent",
        override_eligible=True,
    )
)
registry.register(
    FamilySpec(
        name="tournament",
        config_type=TournamentConfig,
        sizer=size_tournament,
        builder=tournament_from_config,
        predictor_type=TournamentPredictor,
        batch_kernel="tournament",
    )
)
registry.register(
    FamilySpec(
        name="loop",
        config_type=LoopConfig,
        sizer=size_loop,
        builder=loop_from_config,
        predictor_type=LoopPredictor,
        batch_kernel="loop",
    )
)


# -- public entry points -------------------------------------------------------


def build_predictor(family: str, budget_bytes: int) -> BranchPredictor:
    """Build a predictor of ``family`` sized for ``budget_bytes`` of state.

    A registry lookup: every registered family is accepted, including the
    pipelined ``repro.core`` ones.
    """
    return registry.build(family, budget_bytes)
