"""Multi-component hybrid predictor (Evers' multi-hybrid, PhD thesis 1999).

The most accurate table-based predictor the paper evaluates.  Several
heterogeneous component predictors run in parallel; a PC-indexed *selection
table* holds one small saturating counter per component, and the component
with the highest counter value supplies the prediction (ties broken by a
fixed priority order, most-specialized first).

Selection training (Evers): when the selected component mispredicts but some
other component was right, the correct components' counters are incremented;
when the selected component is right, the counters of wrong components decay.
All components are trained with the outcome on every branch (total update),
which is what gives the multi-hybrid its robustness — and its latency, since
every table must be read and combined before a prediction can be made.

The default component set mirrors Evers' mix: bimodal (fast-training bias),
short- and long-history gshare (pattern correlation at two ranges), a
two-level local predictor (self-correlation), and a loop predictor (trip
counts beyond any history length).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.bits import is_power_of_two
from repro.common.errors import ConfigurationError
from repro.predictors.base import BranchPredictor


@dataclass(frozen=True)
class ComponentSlot:
    """A named component with its selection priority (lower = preferred on ties)."""

    name: str
    predictor: BranchPredictor
    priority: int


class MultiComponentPredictor(BranchPredictor):
    """Evers-style multi-hybrid over an arbitrary component list."""

    name = "multicomponent"

    def __init__(
        self,
        components: list[BranchPredictor],
        selector_entries: int = 1024,
        selector_bits: int = 2,
    ) -> None:
        super().__init__()
        if len(components) < 2:
            raise ConfigurationError("multi-hybrid needs at least two components")
        if not is_power_of_two(selector_entries):
            raise ConfigurationError(
                f"selector entries must be a power of two, got {selector_entries}"
            )
        self.slots = [
            ComponentSlot(name=p.name, predictor=p, priority=i)
            for i, p in enumerate(components)
        ]
        self.selector_entries = selector_entries
        self.selector_bits = selector_bits
        self._selector_max = (1 << selector_bits) - 1
        # counters[entry, component]; start all equal so priority order rules.
        self._counters = np.full(
            (selector_entries, len(components)), self._selector_max // 2 + 1, dtype=np.int8
        )

    @property
    def storage_bits(self) -> int:
        """Hardware state consumed by the predictor, in bits."""
        component_bits = sum(slot.predictor.storage_bits for slot in self.slots)
        selector_storage = self.selector_entries * len(self.slots) * self.selector_bits
        return component_bits + selector_storage

    def _selector_index(self, pc: int) -> int:
        return (pc >> 2) & (self.selector_entries - 1)

    def _select(self, counters: np.ndarray) -> int:
        # argmax returns the first maximal element: priority order is the
        # component list order, so ties go to the earlier (preferred) slot.
        return int(np.argmax(counters))

    def _predict(self, pc: int) -> tuple[bool, object]:
        index = self._selector_index(pc)
        votes = [slot.predictor.predict(pc) for slot in self.slots]
        chosen = self._select(self._counters[index])
        return votes[chosen], (index, chosen, votes)

    def _update(self, pc: int, taken: bool, predicted: bool, context: object) -> None:
        index, chosen, votes = context
        counters = self._counters[index]
        selected_correct = votes[chosen] == taken
        for i, vote in enumerate(votes):
            component_correct = vote == taken
            if not selected_correct and component_correct and counters[i] < self._selector_max:
                counters[i] += 1
            elif selected_correct and not component_correct and counters[i] > 0:
                counters[i] -= 1
        # Total update: every component trains on every branch.
        for slot in self.slots:
            slot.predictor.update(pc, taken)

    def peek(self, pc: int) -> bool:
        """Non-mutating prediction (components peeked, not put in flight)."""
        index = self._selector_index(pc)
        votes = [slot.predictor.peek(pc) for slot in self.slots]
        return votes[self._select(self._counters[index])]

    def state(self) -> dict[str, np.ndarray]:
        """Selection counters, stats, and every component's full state
        under a ``<priority>.<name>.`` prefix (diff tooling)."""
        state = {**super().state(), "selector": self._counters.copy()}
        for slot in self.slots:
            for key, value in slot.predictor.state().items():
                state[f"{slot.priority}.{slot.name}.{key}"] = value
        return state

    def component_names(self) -> list[str]:
        """Component names in priority order."""
        return [slot.name for slot in self.slots]
