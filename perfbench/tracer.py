"""Span recorders the benchmark wraps around the program's layer entry points.

Only the traced run installs them (``--trace 1``); untraced runs time
public entry points and nothing else.  Spans live in memory and are
written out once, when the run ends.  Calls too frequent to keep one
record each (cache accesses, per-branch predict/update) are summed per
enclosing span: they run one after another inside it, so the sum is
exactly the time they cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """In-memory spans plus per-parent aggregates of hot leaf calls."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._leaves: dict[tuple[int | None, str], list] = {}
        self._patches: list[tuple[object, str, object]] = []
        #: Context the workload loop sets for spans that need it (op mode).
        self.tags: dict[str, object] = {}

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        start = time.perf_counter()
        try:
            yield record
        finally:
            record["start"] = start
            record["duration"] = time.perf_counter() - start
            self._stack.pop()

    def leaf(self, name: str, seconds: float) -> None:
        key = (self._stack[-1] if self._stack else None, name)
        slot = self._leaves.get(key)
        if slot is None:
            self._leaves[key] = [1, seconds]
        else:
            slot[0] += 1
            slot[1] += seconds

    def records(self) -> list[dict]:
        """Closed spans plus leaf aggregates, in the shape
        :func:`stats.fold_self_times` takes."""
        out = [dict(s) for s in self.spans if "duration" in s]
        for index, ((parent, name), (calls, seconds)) in enumerate(self._leaves.items()):
            out.append(
                {"id": f"leaf{index}", "parent": parent, "name": name,
                 "duration": seconds, "calls": calls}
            )
        return out

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and "duration" in s]

    # -- patching -------------------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped entry point back."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def wrap(self, owner, attr: str, name, attrs=None) -> None:
        """Record one span per call; ``name`` may be a function of the
        call's arguments, ``attrs`` a function of (args, result)."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with tracer.span(label) as record:
                result = original(*args, **kwargs)
            if attrs is not None:
                record["attrs"].update(attrs(args, result))
            return result

        self._patch(owner, attr, wrapper)

    def wrap_leaf(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        leaf = self.leaf
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                leaf(name, clock() - start)

        self._patch(owner, attr, wrapper)

    def wrap_context(self, owner, attr: str, name: str) -> None:
        """Wrap a context-manager factory: the span covers the ``with`` body."""
        original = getattr(owner, attr)
        tracer = self

        @contextmanager
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                with original(*args, **kwargs) as value:
                    yield value

        self._patch(owner, attr, wrapper)

    def wrap_lazy_property(self, owner: type, attr: str, cache_attr: str, name: str) -> None:
        """Time a lazily built property only on the call that builds it."""
        prop = owner.__dict__[attr]
        tracer = self

        def getter(obj):
            if getattr(obj, cache_attr, None) is not None:
                return prop.fget(obj)
            with tracer.span(name):
                return prop.fget(obj)

        self._patch(owner, attr, property(getter))


def install_layer_probes(tracer: Tracer) -> None:
    """Wrap every layer entry point the workloads reach in-process.

    Probes that a workload never reaches simply record nothing.
    """
    from repro.core.overriding import OverridingPredictor
    from repro.harness import resultstore, sweep
    from repro.harness.experiment import resolve_engine
    from repro.predictors import registry
    from repro.uarch.caches import MemoryHierarchy
    from repro.uarch.policies import SingleCyclePolicy
    from repro.uarch.simulator import CycleSimulator
    from repro.workloads.store import ColumnarTrace, TraceStore

    def eval_name(predictor, trace, *args, **kwargs):
        family = registry.spec_for_predictor(predictor).name
        engine = resolve_engine(predictor, kwargs.get("engine"))
        if family == "bimode_fast":
            return "core.eval.bimode_fast"
        if engine == "batch":
            return f"batch.eval.{family}"
        return f"predictors.eval.{family}"

    tracer.wrap(
        sweep, "measure_accuracy", eval_name,
        attrs=lambda args, result: {"predictions": args[1].conditional_branch_count},
    )
    tracer.wrap(TraceStore, "get_or_generate", "workloads.trace_load")
    tracer.wrap_lazy_property(ColumnarTrace, "blocks", "_blocks", "workloads.blocks")

    def sim_attrs(args, result):
        return {
            "instructions": result.instructions,
            "cycles": result.cycles,
            "mispredictions": result.mispredictions,
            "overrides": result.overrides,
            "stalls": dict(vars(result.stalls)),
        }

    tracer.wrap(
        CycleSimulator, "run",
        lambda *a, **k: f"uarch.run.{tracer.tags.get('mode', 'ideal')}",
        attrs=sim_attrs,
    )
    tracer.wrap_leaf(OverridingPredictor, "predict", "core.overriding")
    tracer.wrap_leaf(OverridingPredictor, "update", "core.overriding")
    tracer.wrap_leaf(SingleCyclePolicy, "predict", "predictors.policy")
    tracer.wrap_leaf(SingleCyclePolicy, "update", "predictors.policy")
    tracer.wrap_leaf(MemoryHierarchy, "access_instruction", "uarch.caches")
    tracer.wrap_leaf(MemoryHierarchy, "access_data", "uarch.caches")

    tracer.wrap(resultstore.ResultStore, "save", "harness.result_store.save")
    tracer.wrap(resultstore.ResultStore, "load", "harness.result_store.load")
    tracer.wrap_context(resultstore, "atomic_path", "common.atomic_write")
