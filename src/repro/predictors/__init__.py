"""Branch-predictor substrate: every baseline the paper evaluates."""

from repro.predictors.base import BranchPredictor, PredictorStats
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.bimode import BiModePredictor
from repro.predictors.factory import build_predictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.registry import FamilySpec, family_names
from repro.predictors.gskew import EGskewPredictor, TwoBcGskewPredictor
from repro.predictors.local import LocalPredictor
from repro.predictors.loop import LoopPredictor
from repro.predictors.multicomponent import MultiComponentPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.static import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
    BtfnPredictor,
)
from repro.predictors.tournament import TournamentPredictor

__all__ = [
    "AlwaysNotTakenPredictor",
    "AlwaysTakenPredictor",
    "BiModePredictor",
    "BtfnPredictor",
    "BimodalPredictor",
    "BranchPredictor",
    "EGskewPredictor",
    "FamilySpec",
    "GsharePredictor",
    "LocalPredictor",
    "LoopPredictor",
    "MultiComponentPredictor",
    "PerceptronPredictor",
    "PredictorStats",
    "TournamentPredictor",
    "TwoBcGskewPredictor",
    "build_predictor",
    "family_names",
]
