"""Shared low-level utilities: bits, counters, histories, RNG, errors."""

from repro.common.atomic import atomic_path, atomic_write_json
from repro.common.bits import fold, hash_pc, is_power_of_two, log2_exact, mask
from repro.common.counters import CounterTable
from repro.common.errors import (
    BudgetError,
    ConfigurationError,
    ProtocolError,
    ReproError,
    TraceError,
)
from repro.common.history import HistoryRegister, LocalHistoryTable
from repro.common.rng import derive, derive_seed

__all__ = [
    "BudgetError",
    "ConfigurationError",
    "CounterTable",
    "HistoryRegister",
    "LocalHistoryTable",
    "ProtocolError",
    "ReproError",
    "TraceError",
    "atomic_path",
    "atomic_write_json",
    "derive",
    "derive_seed",
    "fold",
    "hash_pc",
    "is_power_of_two",
    "log2_exact",
    "mask",
]
