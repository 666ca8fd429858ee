"""Config serialization round-trips rebuild bit-identical predictors.

Parallel workers and run manifests carry predictor configurations as plain
dicts (:meth:`SizingConfig.to_dict`).  For that transport to be safe the
round trip must be *exact*: ``from_dict(to_dict(cfg))`` equals ``cfg``, and
a predictor rebuilt from the round-tripped config must march in lockstep
with the original — same prediction stream, byte-identical tables after a
shared warm-up trace.  Every registered family is checked at several points
on the budget ladder.
"""

from __future__ import annotations

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.predictors import registry
from repro.predictors.sizing import GshareConfig

ALL_FAMILIES = registry.family_names()

BUDGET_SAMPLE = [4 * 1024, 32 * 1024]


def table_digests(predictor) -> dict[str, bytes]:
    return {name: values.tobytes() for name, values in predictor.state().items()}


def warmup_stream(trace, limit=800):
    stream = []
    for pc, taken in trace.conditional_branches():
        stream.append((pc, taken))
        if len(stream) >= limit:
            break
    return stream


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("budget", BUDGET_SAMPLE)
class TestRoundTrip:
    def test_config_round_trips_exactly(self, family, budget):
        config = registry.size_config(family, budget)
        payload = config.to_dict()
        # The transport is JSON in practice (checkpoints, manifests).
        rebuilt = type(config).from_dict(json.loads(json.dumps(payload)))
        assert rebuilt == config

    def test_rebuilt_predictor_is_bit_identical(self, family, budget, small_trace):
        config = registry.size_config(family, budget)
        original = registry.build_from_config(family, config)
        rebuilt = registry.build_from_config(
            family, type(config).from_dict(config.to_dict())
        )
        for pc, taken in warmup_stream(small_trace):
            assert original.predict(pc) == rebuilt.predict(pc)
            original.update(pc, taken)
            rebuilt.update(pc, taken)
        assert table_digests(original) == table_digests(rebuilt)
        assert original.stats.mispredictions == rebuilt.stats.mispredictions


class TestValidation:
    def test_missing_field_rejected(self):
        payload = registry.size_config("gshare", 8 * 1024).to_dict()
        del payload["entries"]
        with pytest.raises(ConfigurationError, match="missing field"):
            GshareConfig.from_dict(payload)

    def test_unknown_field_rejected(self):
        payload = registry.size_config("gshare", 8 * 1024).to_dict()
        payload["banks"] = 4
        with pytest.raises(ConfigurationError, match="unknown field"):
            GshareConfig.from_dict(payload)

    def test_non_int_field_rejected(self):
        payload = registry.size_config("gshare", 8 * 1024).to_dict()
        payload["entries"] = "lots"
        with pytest.raises(ConfigurationError):
            GshareConfig.from_dict(payload)
