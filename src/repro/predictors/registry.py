"""The declarative predictor-family registry.

The paper's argument is comparative: eleven predictor families driven
through one protocol at many hardware budgets.  This module is the single
place that knows *what a family is*.  Each family registers one
:class:`FamilySpec` carrying its name, its serializable sizing config, a
sizer (budget -> config), a builder (config -> predictor), and capability
flags; every consumer — the factory, the sweep harness, the batch engine,
the campaign executor, the CLI, and the conformance/fuzz test suites —
derives its behaviour from the spec instead of hard-coding family lists.

Adding a family is a one-module change:

1. define the predictor (a :class:`~repro.predictors.base.BranchPredictor`
   subclass) plus a frozen config dataclass inheriting
   :class:`~repro.predictors.sizing.SizingConfig`;
2. call :func:`register` with a :class:`FamilySpec` in the same module;
3. make sure the module is imported (families shipped with the package are
   listed in ``_FAMILY_MODULES``; external/test families import their own
   module before use).

Nothing else changes: sweeps, batch/scalar engine selection, parallel
sharding, manifests, the CLI listing and the conformance matrix all pick
the new family up from the registry.

Capability flags
----------------

``batch_kernel``
    Name of the vectorized kernel in :mod:`repro.batch.engine` that is
    bit-exact for this family, or ``None`` to always use the scalar engine.
``single_cycle``
    The predictor delivers every prediction in one cycle by construction
    (the pipelined ``repro.core`` families); such families never need an
    overriding front end.
``override_eligible``
    The timing layer has a latency model for this family, so it can play
    the *slow* side of an overriding pair (Figure 7 right).
``state_neutral_peek``
    ``peek()`` must not disturb any predictor state.  True for every
    shipped family (the conformance matrix enforces it); a family with a
    genuinely stateful read path may opt out.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Mapping
from dataclasses import dataclass, replace
from typing import Any

from repro.common.errors import ConfigurationError
from repro.predictors.base import BranchPredictor
from repro.predictors.sizing import SizingConfig, validate_budget

#: Modules whose import registers the families shipped with the package.
_FAMILY_MODULES = (
    "repro.predictors.factory",
    "repro.core.gshare_fast",
    "repro.core.bimode_fast",
)

#: Concrete BranchPredictor subclasses that are deliberately *not* families:
#: static baselines and components that only exist inside composite
#: predictors (they have no budget-sizing story of their own).
NON_FAMILY_PREDICTORS = frozenset(
    {
        "AlwaysTakenPredictor",
        "AlwaysNotTakenPredictor",
        "BtfnPredictor",
        "LocalPredictor",
    }
)


@dataclass(frozen=True)
class FamilySpec:
    """Everything the pipeline needs to know about one predictor family."""

    #: Family name as used on CLI/figures axes (e.g. ``"gshare_fast"``).
    name: str
    #: The frozen config dataclass; ``to_dict``/``from_dict`` round-trips.
    config_type: type[SizingConfig]
    #: Hardware budget (bytes) -> config.
    sizer: Callable[[int], SizingConfig]
    #: Config -> freshly constructed predictor (bit-identical per config).
    builder: Callable[[Any], BranchPredictor]
    #: Exact concrete type the builder returns (batch dispatch, completeness).
    predictor_type: type[BranchPredictor]
    #: Batch-engine kernel name, or None for scalar-only families.
    batch_kernel: str | None = None
    #: Single-cycle by construction (never needs overriding).
    single_cycle: bool = False
    #: Has a latency model, may play the slow side of an overriding pair.
    override_eligible: bool = False
    #: ``peek()`` leaves all state untouched (conformance-enforced).
    state_neutral_peek: bool = True
    #: Module that registered the spec (filled in by :func:`register`).
    module: str = ""


_SPECS: dict[str, FamilySpec] = {}
_loaded = False

_build_count = 0


def build_count() -> int:
    """Times this process constructed a predictor through the registry.

    A warm result-store run of a whole figure grid should leave this at
    zero — ``scripts/drill.py result-store`` asserts exactly that (via the
    mirrored ``predictors.builds`` obs counter)."""
    return _build_count


def reset_build_count() -> None:
    """Zero the build counter (start of a measurement window)."""
    global _build_count
    _build_count = 0


def _record_build() -> None:
    global _build_count
    _build_count += 1
    from repro import obs  # deferred: obs must stay importable standalone

    if obs.enabled():
        obs.counter("predictors.builds").inc()


def register(spec: FamilySpec) -> FamilySpec:
    """Add ``spec`` to the registry; returns it so call sites can chain.

    Registering the same (module, predictor type) under the same name twice
    is a no-op — module reloads and repeated test imports are harmless.  A
    *different* spec under an existing name is a configuration error.
    """
    module = spec.module or getattr(spec.builder, "__module__", "") or ""
    spec = replace(spec, module=module)
    existing = _SPECS.get(spec.name)
    if existing is not None:
        if (
            existing.module == spec.module
            and existing.predictor_type.__name__ == spec.predictor_type.__name__
        ):
            _SPECS[spec.name] = spec
            return spec
        raise ConfigurationError(
            f"predictor family {spec.name!r} is already registered by "
            f"{existing.module} (predictor {existing.predictor_type.__name__}); "
            f"refusing the conflicting spec from {spec.module}"
        )
    _SPECS[spec.name] = spec
    return spec


def _ensure_loaded() -> None:
    """Import the family modules shipped with the package (once)."""
    global _loaded
    if _loaded:
        return
    _loaded = True  # set first: family modules may query the registry
    for module in _FAMILY_MODULES:
        importlib.import_module(module)


def family_names() -> list[str]:
    """Every registered family name, sorted — the one authoritative list."""
    _ensure_loaded()
    return sorted(_SPECS)


def specs() -> list[FamilySpec]:
    """Every registered spec, sorted by family name."""
    _ensure_loaded()
    return [_SPECS[name] for name in sorted(_SPECS)]


def get_spec(family: str) -> FamilySpec:
    """The spec for ``family``; unknown names raise ConfigurationError."""
    _ensure_loaded()
    try:
        return _SPECS[family]
    except KeyError:
        raise ConfigurationError(
            f"unknown predictor family {family!r}; "
            f"known: {', '.join(sorted(_SPECS))}"
        ) from None


def size_config(family: str, budget_bytes: int) -> SizingConfig:
    """Size ``family`` for ``budget_bytes``: validated budget -> config."""
    spec = get_spec(family)
    validate_budget(budget_bytes)
    return spec.sizer(budget_bytes)


def build(family: str, budget_bytes: int) -> BranchPredictor:
    """Construct any registered family sized for ``budget_bytes``."""
    spec = get_spec(family)
    _record_build()
    return spec.builder(size_config(family, budget_bytes))


def build_from_config(
    family: str, config: SizingConfig | Mapping[str, object]
) -> BranchPredictor:
    """Construct ``family`` from an explicit (possibly serialized) config."""
    spec = get_spec(family)
    if isinstance(config, Mapping):
        config = spec.config_type.from_dict(config)
    if not isinstance(config, spec.config_type):
        raise ConfigurationError(
            f"family {family!r} expects a {spec.config_type.__name__}, "
            f"got {type(config).__name__}"
        )
    _record_build()
    return spec.builder(config)


def spec_for_predictor(predictor: BranchPredictor) -> FamilySpec | None:
    """The spec whose predictor type is *exactly* ``type(predictor)``.

    Exact-type matching is deliberate: a subclass may override indexing or
    update rules that capability-driven consumers (the batch kernels above
    all) would silently ignore.
    """
    _ensure_loaded()
    for spec in _SPECS.values():
        if type(predictor) is spec.predictor_type:
            return spec
    return None


# -- serialized specs (result-store keys, fresh-process rebuilds) --------------


def serialize_spec(
    family: str, budget_bytes: int, config: SizingConfig | None = None
) -> dict:
    """JSON-able resolved spec: sizing runs once, here, in the parent
    (``config`` is an already-resolved config of the family, if given).

    Workers rebuild the predictor from the embedded config via
    :func:`build_serialized` — bit-identical to the parent's sizing without
    re-running it — and external families travel with their module name so
    a spawn-fresh worker can import the registration.
    """
    spec = get_spec(family)
    if config is None:
        config = size_config(family, budget_bytes)
    return {"family": family, "module": spec.module, "config": config.to_dict()}


def build_serialized(payload: Mapping[str, object]) -> BranchPredictor:
    """Rebuild a predictor from :func:`serialize_spec` output."""
    for key in ("family", "module", "config"):
        if key not in payload:
            raise ConfigurationError(
                f"serialized spec is missing the {key!r} field: {payload!r}"
            )
    module = str(payload["module"])
    if module:
        # Import the registering module first: in spawn-fresh workers an
        # external (e.g. test-only) family is not yet registered.
        importlib.import_module(module)
    config = payload["config"]
    if not isinstance(config, Mapping):
        raise ConfigurationError(
            f"serialized spec config must be a mapping, got {type(config).__name__}"
        )
    return build_from_config(str(payload["family"]), config)


# -- completeness (CI gate) ----------------------------------------------------


def _concrete_predictor_types() -> list[type[BranchPredictor]]:
    """Every concrete BranchPredictor subclass importable from the package."""
    _ensure_loaded()
    # The baselines live outside the family modules; import them so the
    # subclass walk sees the full shipped zoo.
    importlib.import_module("repro.predictors.static")
    importlib.import_module("repro.predictors.local")
    found: list[type[BranchPredictor]] = []
    stack: list[type] = [BranchPredictor]
    while stack:
        parent = stack.pop()
        for sub in parent.__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro."):
                found.append(sub)
    return found


def completeness_problems() -> list[str]:
    """Gaps between the registry and the rest of the pipeline.

    Returns one human-readable line per problem (empty == complete):

    * a concrete ``repro.*`` BranchPredictor subclass that is neither
      registered nor exempted in :data:`NON_FAMILY_PREDICTORS` — such a
      predictor would silently dodge the registry-parametrized conformance
      matrix, fuzz suites, and serialization tests;
    * a :data:`repro.harness.figures.FIGURES` grid naming a family the
      registry does not know — the figure would crash (or worse, drift) at
      regeneration time.

    Conformance coverage itself is structural: the conformance matrix and
    fuzz suites parametrize directly over :func:`family_names`, so a
    registered family cannot escape them (``tests/test_registry.py`` pins
    that the conformance matrix uses exactly this list).
    """
    problems: list[str] = []
    registered_types = {spec.predictor_type for spec in _SPECS.values()}
    for sub in _concrete_predictor_types():
        if sub in registered_types or sub.__name__ in NON_FAMILY_PREDICTORS:
            continue
        problems.append(
            f"{sub.__module__}.{sub.__name__} is a concrete BranchPredictor "
            f"but no FamilySpec registers it (add one, or add it to "
            f"registry.NON_FAMILY_PREDICTORS with a reason)"
        )
    figures = importlib.import_module("repro.harness.figures")
    known = set(_SPECS)
    for name, figure in figures.FIGURES.items():
        for grid in figure.grids:
            for family in grid.families:
                if family not in known:
                    problems.append(
                        f"figures.FIGURES[{name!r}] references {family!r}, which "
                        f"is not a registered predictor family"
                    )
    return problems
