"""The registry's payoff, proven: a test-only family flows everywhere.

``tests/toy_family.py`` defines a complete predictor family (predictor +
config + sizer + builder + one ``register()`` call) in a single module.
This suite pushes it through the budget sweep, the engine-selection
fallback, the campaign executor, and the conformance contract — and the
point of the exercise is what it does *not* import: nothing family-specific
from :mod:`repro.harness`, :mod:`repro.batch`, or
:mod:`repro.harness.campaign`.  Every entry point used below is generic;
the registry is the only coupling.
"""

from __future__ import annotations

import pytest

from repro.batch import supports_batch
from repro.common.errors import ConfigurationError, ProtocolError
from repro.harness.experiment import resolve_engine
from repro.harness.sweep import accuracy_sweep
from repro.predictors import registry

from tests.toy_family import FAMILY, SPEC, ToyConfig, ToyDirectPredictor

BUDGET = 4 * 1024


def test_toy_family_is_registered():
    assert FAMILY in registry.family_names()
    assert registry.get_spec(FAMILY) is SPEC
    assert SPEC.module == "tests.toy_family"


def test_toy_builds_through_generic_entry_points():
    predictor = registry.build(FAMILY, BUDGET)
    assert isinstance(predictor, ToyDirectPredictor)
    assert predictor.storage_bytes <= BUDGET * 1.05
    config = registry.size_config(FAMILY, BUDGET)
    assert isinstance(config, ToyConfig)
    twin = registry.build_from_config(FAMILY, config.to_dict())
    assert type(twin) is ToyDirectPredictor
    assert twin.storage_bits == predictor.storage_bits


def test_toy_honours_predictor_protocol():
    predictor = registry.build(FAMILY, BUDGET)
    assert isinstance(predictor.predict(0x4000), bool)
    with pytest.raises(ProtocolError):
        predictor.predict(0x4004)
    predictor.update(0x4000, True)
    before = predictor.table.snapshot().tobytes()
    for i in range(32):
        predictor.peek(0x4000 + 4 * i)
    assert predictor.table.snapshot().tobytes() == before


def test_toy_falls_back_to_scalar_engine():
    """No ``batch_kernel`` on the spec -> the engine layer must degrade to
    the scalar path without any type-specific knowledge of the toy."""
    predictor = registry.build(FAMILY, BUDGET)
    assert supports_batch(predictor) is False
    assert resolve_engine(predictor, "auto") == "scalar"
    with pytest.raises(ConfigurationError):
        resolve_engine(predictor, "batch")


def test_toy_spec_serializes_for_workers():
    payload = registry.serialize_spec(FAMILY, BUDGET)
    assert payload["family"] == FAMILY
    assert payload["module"] == "tests.toy_family"
    rebuilt = registry.build_serialized(payload)
    assert type(rebuilt) is ToyDirectPredictor
    assert rebuilt.storage_bits == registry.build(FAMILY, BUDGET).storage_bits


def test_toy_sweeps_serial_and_parallel_identically():
    """The full tentpole proof: the toy rides an accuracy sweep next to a
    shipped family, and the campaign path (forked workers inheriting the
    registration) reproduces the serial cells exactly."""
    kwargs = dict(
        families=[FAMILY, "bimodal"],
        budgets=[BUDGET],
        benchmarks=["gcc"],
        instructions=20_000,
    )
    serial = accuracy_sweep(**kwargs, jobs=1)
    parallel = accuracy_sweep(**kwargs, jobs=2)
    assert serial == parallel
    toy_cells = [cell for cell in serial if cell.family == FAMILY]
    assert len(toy_cells) == 1
    assert 0.0 <= toy_cells[0].misprediction_percent <= 100.0
