"""Hardware-budget sizing rules.

The paper sweeps predictors across hardware budgets given in bytes of
predictor state (Figures 1, 2, 5, 7).  This module turns a budget into a
concrete configuration for each predictor family, using the configuration
rules the paper cites:

* gshare / gshare.fast — the PHT fills the budget (4 two-bit counters per
  byte); history length is the maximum, log2 of the entry count (§4.1.4).
* Bi-Mode — budget split across two direction tables and a choice table.
* 2Bc-gskew — four equal banks (BIM, G0, G1, META); G0 uses a short history,
  G1 a long one, per the EV8 design.
* perceptron — history length per budget follows the published table from
  Jiménez & Lin (HPCA-7); the weight table fills the remaining budget at one
  byte per weight, with a quarter of the history bits drawn from a local
  history table (the paper under reproduction uses global+local input).
* multi-component — budget split across bimodal, short/long gshare, local,
  and loop components plus the selection table, in Evers-like proportions.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from typing import TypeVar

from repro.common.errors import BudgetError, ConfigurationError

KIB = 1024

#: History-length cap for classic gshare-style indexing.  The paper's
#: billion-instruction SPEC runs support histories equal to the full index
#: width; at this package's default trace scale (10^5-10^6 branches),
#: histories beyond ~14 bits dilute training faster than they add
#: correlation, so sized gshare components clamp here.  gshare.fast is NOT
#: clamped: its line-address design requires history bits for the whole
#: index (Section 4.1.4), which is faithful to the paper and measurable as
#: a mild large-budget accuracy cost at small trace scales.
GSHARE_MAX_HISTORY = 14

#: Perceptron history length by hardware budget (Jiménez & Lin, HPCA-7
#: table of best history lengths; values beyond their sweep keep the trend).
PERCEPTRON_HISTORY_BY_BUDGET: dict[int, int] = {
    1 * KIB: 12,
    2 * KIB: 22,
    4 * KIB: 28,
    8 * KIB: 34,
    16 * KIB: 36,
    32 * KIB: 59,
    64 * KIB: 59,
    128 * KIB: 62,
    256 * KIB: 62,
    512 * KIB: 62,
}


def floor_pow2(value: int) -> int:
    """Largest power of two <= value (>= 1)."""
    if value < 1:
        raise BudgetError(f"cannot size a table from {value} entries")
    return 1 << (value.bit_length() - 1)


def perceptron_history_length(budget_bytes: int) -> int:
    """History length for a perceptron at ``budget_bytes`` (nearest rule)."""
    if budget_bytes in PERCEPTRON_HISTORY_BY_BUDGET:
        return PERCEPTRON_HISTORY_BY_BUDGET[budget_bytes]
    # Interpolate on the log scale for off-grid budgets.
    keys = sorted(PERCEPTRON_HISTORY_BY_BUDGET)
    if budget_bytes <= keys[0]:
        return PERCEPTRON_HISTORY_BY_BUDGET[keys[0]]
    if budget_bytes >= keys[-1]:
        return PERCEPTRON_HISTORY_BY_BUDGET[keys[-1]]
    below = max(k for k in keys if k <= budget_bytes)
    above = min(k for k in keys if k > budget_bytes)
    return (PERCEPTRON_HISTORY_BY_BUDGET[below] + PERCEPTRON_HISTORY_BY_BUDGET[above]) // 2


_C = TypeVar("_C", bound="SizingConfig")


@dataclass(frozen=True)
class SizingConfig:
    """Base for the per-family configuration dataclasses.

    Every family's config is a frozen dataclass of plain integers, so a
    configuration can travel as JSON (between sweep processes, into run
    manifests and shard checkpoints) and rebuild a bit-identical predictor
    through its family's builder.  ``from_dict(to_dict(cfg)) == cfg`` is a
    registry-wide invariant enforced by the conformance suite.
    """

    def to_dict(self) -> dict[str, int]:
        """JSON-able view of the configuration (field name -> value)."""
        return asdict(self)

    @classmethod
    def from_dict(cls: type[_C], data: Mapping[str, object]) -> _C:
        """Rebuild a config from :meth:`to_dict` output, validating shape."""
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(data) - set(names))
        missing = sorted(set(names) - set(data))
        if unknown or missing:
            raise ConfigurationError(
                f"{cls.__name__}: cannot deserialize config "
                f"(missing fields: {missing}, unknown fields: {unknown})"
            )
        bad = sorted(name for name in names if not isinstance(data[name], int))
        if bad:
            raise ConfigurationError(
                f"{cls.__name__}: non-integer config fields {bad}"
            )
        return cls(**{name: data[name] for name in names})


@dataclass(frozen=True)
class GshareConfig(SizingConfig):
    """Sized gshare: PHT entries and history length."""

    entries: int
    history_length: int


@dataclass(frozen=True)
class BimodalConfig(SizingConfig):
    """Sized bimodal: PC-indexed counter-table entries."""

    entries: int


@dataclass(frozen=True)
class EGskewConfig(SizingConfig):
    """Sized e-gskew: per-bank entries and history length."""

    bank_entries: int
    history_length: int


@dataclass(frozen=True)
class TournamentConfig(SizingConfig):
    """Sized EV6 tournament: global/chooser tables and local structures."""

    global_entries: int
    local_histories: int
    local_history_length: int
    local_pht_entries: int
    chooser_entries: int


@dataclass(frozen=True)
class LoopConfig(SizingConfig):
    """Sized loop predictor: monitor entries and confidence threshold."""

    entries: int
    confidence_threshold: int


@dataclass(frozen=True)
class GshareFastConfig(SizingConfig):
    """Sized gshare.fast: PHT entries, the non-speculative update delay,
    the PHT read latency and the PHT-buffer index width."""

    entries: int
    update_delay: int
    pht_latency: int
    buffer_bits: int


@dataclass(frozen=True)
class BiModeFastConfig(SizingConfig):
    """Sized bimode.fast: direction-table and choice-table entries."""

    direction_entries: int
    choice_entries: int


@dataclass(frozen=True)
class BiModeConfig(SizingConfig):
    """Sized Bi-Mode: direction/choice table entries and history."""

    direction_entries: int
    choice_entries: int
    history_length: int


@dataclass(frozen=True)
class GskewConfig(SizingConfig):
    """Sized 2Bc-gskew: per-bank entries and staggered histories."""

    bank_entries: int
    short_history: int
    long_history: int


@dataclass(frozen=True)
class PerceptronConfig(SizingConfig):
    """Sized perceptron: table rows and global/local history split."""

    num_perceptrons: int
    global_history: int
    local_history: int
    local_history_entries: int


@dataclass(frozen=True)
class MultiComponentConfig(SizingConfig):
    """Sized multi-hybrid: per-component structures and selector."""

    bimodal_entries: int
    gshare_short_entries: int
    gshare_short_history: int
    gshare_long_entries: int
    gshare_long_history: int
    local_histories: int
    local_history_length: int
    local_pht_entries: int
    loop_entries: int
    selector_entries: int


def size_gshare(budget_bytes: int) -> GshareConfig:
    """PHT fills the budget; history clamped per GSHARE_MAX_HISTORY."""
    entries = floor_pow2(budget_bytes * 4)  # 2-bit counters
    if entries < 64:
        raise BudgetError(f"budget {budget_bytes}B too small for a gshare PHT")
    history = min(entries.bit_length() - 1, GSHARE_MAX_HISTORY)
    return GshareConfig(entries=entries, history_length=history)


def size_bimode(budget_bytes: int) -> BiModeConfig:
    """Split the budget across Bi-Mode's three equal tables."""
    # Three equally-sized tables of 2-bit counters.
    total_counters = budget_bytes * 4
    per_table = floor_pow2(total_counters // 3)
    if per_table < 64:
        raise BudgetError(f"budget {budget_bytes}B too small for Bi-Mode")
    history = per_table.bit_length() - 1
    return BiModeConfig(
        direction_entries=per_table, choice_entries=per_table, history_length=history
    )


def size_2bcgskew(budget_bytes: int) -> GskewConfig:
    """Four equal banks (BIM, G0, G1, META) with staggered histories."""
    bank = floor_pow2(budget_bytes)  # 4 banks x 2 bits = 1 byte per entry row
    if bank < 64:
        raise BudgetError(f"budget {budget_bytes}B too small for 2Bc-gskew")
    index_bits = bank.bit_length() - 1
    # The EV8 design staggers a short and a long global history across the
    # banks; both are clamped like every sized gshare-style component (see
    # GSHARE_MAX_HISTORY), with the short bank two branches shorter.
    long_history = min(index_bits, GSHARE_MAX_HISTORY)
    return GskewConfig(
        bank_entries=bank,
        short_history=max(long_history - 2, 1),
        long_history=long_history,
    )


def size_perceptron(budget_bytes: int, use_local: bool = True) -> PerceptronConfig:
    """History per the Jimenez & Lin budget table; weights fill the rest."""
    history = perceptron_history_length(budget_bytes)
    if use_local:
        local = max(history // 4, 1)
        global_hist = history - local
        local_entries = 1024
        local_table_bytes = (local_entries * local + 7) // 8
    else:
        local = 0
        global_hist = history
        local_entries = 1024
        local_table_bytes = 0
    weight_bytes_per_row = 1 + history  # bias + one 8-bit weight per bit
    rows = (budget_bytes - local_table_bytes) // weight_bytes_per_row
    if rows < 8:
        raise BudgetError(f"budget {budget_bytes}B too small for a perceptron table")
    return PerceptronConfig(
        num_perceptrons=rows,
        global_history=global_hist,
        local_history=local,
        local_history_entries=local_entries,
    )


def size_multicomponent(budget_bytes: int) -> MultiComponentConfig:
    """Evers-like budget split across five components plus the selector."""
    budget_bits = budget_bytes * 8
    # Proportions: 2 gshares 25% each, local 25%, bimodal 12.5%,
    # loop ~6%, selector the rest.
    gshare_entries = floor_pow2(budget_bits // 4 // 2)
    bimodal_entries = floor_pow2(budget_bits // 8 // 2)
    if gshare_entries < 64 or bimodal_entries < 64:
        raise BudgetError(f"budget {budget_bytes}B too small for the multi-hybrid")
    gshare_index = gshare_entries.bit_length() - 1
    local_budget_bits = budget_bits // 4
    local_history_length = 11
    # Split local budget between the history table and its PHT.
    local_histories = floor_pow2(local_budget_bits // 2 // local_history_length)
    local_pht_entries = min(floor_pow2(local_budget_bits // 2 // 2), 1 << local_history_length)
    loop_entries = max(floor_pow2(budget_bits // 16 // 31), 32)
    selector_entries = max(floor_pow2(budget_bits // 16 // 10), 128)
    return MultiComponentConfig(
        bimodal_entries=bimodal_entries,
        gshare_short_entries=gshare_entries,
        gshare_short_history=max(min(gshare_index, GSHARE_MAX_HISTORY) // 2, 1),
        gshare_long_entries=gshare_entries,
        gshare_long_history=min(gshare_index, GSHARE_MAX_HISTORY),
        local_histories=max(local_histories, 64),
        local_history_length=local_history_length,
        local_pht_entries=max(local_pht_entries, 64),
        loop_entries=loop_entries,
        selector_entries=selector_entries,
    )


def size_bimodal(budget_bytes: int) -> BimodalConfig:
    """Bimodal fills the budget with 2-bit counters (4 per byte)."""
    return BimodalConfig(entries=floor_pow2(budget_bytes * 4))


def size_egskew(budget_bytes: int) -> EGskewConfig:
    """e-gskew: three equal banks of 2-bit counters fill the budget; history
    equals the bank index width (the predictor's own default)."""
    bank = floor_pow2(budget_bytes * 8 // 3 // 2)
    return EGskewConfig(bank_entries=bank, history_length=bank.bit_length() - 1)


def size_tournament(budget_bytes: int) -> TournamentConfig:
    """EV6 proportions scaled to the budget: global/chooser tables equal,
    local structures a quarter of their size, EV6's 10-bit local history."""
    global_entries = floor_pow2(budget_bytes * 8 // 2 // 2 // 2)
    local = max(global_entries // 4, 64)
    return TournamentConfig(
        global_entries=global_entries,
        local_histories=local,
        local_history_length=10,
        local_pht_entries=local,
        chooser_entries=global_entries,
    )


def size_loop(budget_bytes: int) -> LoopConfig:
    """Standalone loop predictor: 31-bit entries fill the budget."""
    return LoopConfig(
        entries=max(floor_pow2(budget_bytes * 8 // 31), 64),
        confidence_threshold=2,
    )


def size_gshare_fast(budget_bytes: int, update_delay: int = 0) -> GshareFastConfig:
    """gshare.fast shares gshare's PHT sizing; the PHT latency comes from
    the SRAM model at the paper's clock and sets the PHT-buffer width."""
    # Deferred: repro.core imports the predictors package.
    from repro.core.gshare_fast import default_buffer_bits, pht_latency_cycles

    entries = size_gshare(budget_bytes).entries
    latency = pht_latency_cycles(entries)
    return GshareFastConfig(
        entries=entries,
        update_delay=update_delay,
        pht_latency=latency,
        buffer_bits=default_buffer_bits(latency, entries.bit_length() - 1),
    )


def size_bimode_fast(budget_bytes: int) -> BiModeFastConfig:
    """bimode.fast: the choice table takes its single-cycle maximum (1K
    entries, 256 bytes); the two direction tables split the rest evenly."""
    choice_entries = 1024  # MAX_CHOICE_ENTRIES: largest single-cycle table
    choice_bytes = choice_entries * 2 // 8
    remaining_bits = (budget_bytes - choice_bytes) * 8
    direction_entries = floor_pow2(max(remaining_bits // 2 // 2, 64))
    return BiModeFastConfig(
        direction_entries=direction_entries, choice_entries=choice_entries
    )


def validate_budget(budget_bytes: int) -> None:
    """Budgets must be positive; power-of-two budgets are conventional but
    not required (the paper's multi-hybrid budgets are 18KB, 36KB, ...)."""
    if budget_bytes <= 0:
        raise BudgetError(f"hardware budget must be positive, got {budget_bytes}")
