"""Class-level probes around the program's public layer boundaries.

The benchmark never edits the program: it wraps public methods on their
classes for the duration of one pass and restores them afterwards.  Two
probe sets exist:

* ``COUNT_HOOKS`` count deterministic work (candidate columns handed to
  the greedy roster, (query, sensor) pairs handed to gain blocks, covered
  cells gathered by the raster) and read no clock.  They are installed on
  every pass, so untraced runs print the same work counters as traced ones.
* ``TRACE_HOOKS`` additionally record a span per call: name, start, end,
  parent span and slot id.  They are installed only while the traced
  instance of a traced run executes.

A hook whose module, class or method is missing on some commit is reported
as absent and skipped; it never stops a run.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    """One probe: ``layer`` names the span, ``target`` is ``module:Class.method``.

    ``count`` optionally names a counter and how to read it from the call:
    ``"len_arg1"`` counts ``len(args[1])``, ``"len_out1"`` counts
    ``len(result[1])``.  ``subclasses`` also wraps every subclass that
    overrides the method.
    """

    layer: str
    target: str
    count: str | None = None
    how: str | None = None
    subclasses: bool = False


_CANDIDATES = Hook("core.greedy.roster", "repro.core.valuation:ValuationKernel.roster",
                   "core.greedy.candidates", "len_arg1")
_GAIN_BLOCK = Hook("queries.gain_block", "repro.queries.base:GainBlock.gain_many_block",
                   "queries.gain_pairs", "len_arg1", subclasses=True)
_COVERAGE_ROWS = Hook("spatial.raster.coverage_rows",
                      "repro.spatial.raster:WorldRaster.coverage_rows",
                      "spatial.raster.cells", "len_out1")

COUNT_HOOKS = (_CANDIDATES, _GAIN_BLOCK, _COVERAGE_ROWS)

TRACE_HOOKS = COUNT_HOOKS + (
    Hook("service.tick", "repro.service.marketplace:MarketplaceService.tick_once"),
    Hook("service.submit", "repro.service.marketplace:MarketplaceService.submit"),
    Hook("core.engine.step", "repro.core.engine:SlotEngine.step"),
    Hook("sensors.announce", "repro.sensors.fleet:SensorFleet.announcements"),
    Hook("sensors.announce", "repro.sensors.fleet:SensorFleet.announcements_with_delta"),
    Hook("sensors.advance", "repro.sensors.fleet:SensorFleet.advance"),
    Hook("core.kernel.build", "repro.core.valuation:ValuationKernel.ensure"),
    Hook("core.kernel.build", "repro.core.valuation:ValuationKernel.ensure_delta"),
    Hook("core.kernel.build", "repro.core.sharding:ShardedKernel.ensure"),
    Hook("core.kernel.build", "repro.core.sharding:ShardedKernel.ensure_delta"),
    Hook("core.sharding.lookup", "repro.core.sharding:ShardedKernel.sparse_single_values"),
    Hook("core.sharding.lookup", "repro.core.sharding:ShardedKernel.candidate_view"),
    Hook("spatial.raster.exterior", "repro.spatial.raster:WorldRaster.exterior_distance_sq"),
    Hook("core.greedy.allocate", "repro.core.greedy:GreedyAllocator.allocate"),
    Hook("core.allocation.verify", "repro.core.allocation:AllocationResult.verify"),
    Hook("core.engine.settle", "repro.core.engine:OneShotStream.settle"),
)


class Recorder:
    """Span and counter store for one pass, kept in memory.

    ``spans`` holds ``(layer, start, end, parent, slot)`` tuples, where
    ``parent`` indexes ``spans`` (``-1`` for a root).  ``counts`` sums each
    counter over the pass; nested calls of one layer (a subclass calling
    its base) are counted once, at the outermost call.
    """

    def __init__(self, timing: bool) -> None:
        self.timing = timing
        self.on = True
        self.slot = -1
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}

    def call(self, hook: Hook, fn, args, kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        layer = hook.layer
        depth = self._depth.get(layer, 0)
        self._depth[layer] = depth + 1
        if self.timing:
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            if self.timing:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (layer, start, end, parent, self.slot)
            self._depth[layer] = depth
        if hook.count is not None and depth == 0:
            counted = (args[1] if len(args) > 1 else None) if hook.how == "len_arg1" else out[1]
            if counted is not None:
                self.counts[hook.count] = self.counts.get(hook.count, 0) + len(counted)
        return out

    def self_times(self) -> dict[str, float]:
        """Per-layer self time summed over the pass: each span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out

    def total_times(self) -> dict[str, float]:
        """Per-layer wall time of the outermost spans of each layer."""
        out: dict[str, float] = {}
        for layer, start, end, parent, _ in self.spans:
            p = parent
            while p >= 0 and self.spans[p][0] != layer:
                p = self.spans[p][3]
            if p < 0:
                out[layer] = out.get(layer, 0.0) + (end - start)
        return out


def _split(target: str) -> tuple[str, str, str]:
    module, _, rest = target.partition(":")
    cls, _, method = rest.partition(".")
    return module, cls, method


def resolve(hooks) -> tuple[list, list[str]]:
    """``([(hook, cls, method)], absent_targets)`` for this commit."""
    found, absent = [], []
    for hook in hooks:
        module, cls_name, method = _split(hook.target)
        try:
            cls = getattr(importlib.import_module(module), cls_name)
        except (ImportError, AttributeError):
            absent.append(hook.target)
            continue
        if not callable(getattr(cls, method, None)):
            absent.append(hook.target)
            continue
        classes = [cls]
        if hook.subclasses:
            importlib.import_module("repro")  # every built-in subclass is defined
            todo = list(cls.__subclasses__())
            while todo:
                sub = todo.pop()
                todo.extend(sub.__subclasses__())
                if method in sub.__dict__:
                    classes.append(sub)
        owners = [owner for owner in classes if method in owner.__dict__]
        if not owners:  # inherited from a base the probe does not name
            absent.append(hook.target)
        found.extend((hook, owner, method) for owner in owners)
    return found, absent


class Installed:
    """Context manager: wrap the resolved methods, restore them on exit."""

    def __init__(self, recorder: Recorder, resolved) -> None:
        self.recorder = recorder
        self.resolved = resolved
        self._saved: list = []

    def __enter__(self) -> Recorder:
        rec = self.recorder
        for hook, owner, method in self.resolved:
            raw = owner.__dict__[method]
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw

            def wrapper(*args, _fn=fn, _hook=hook, **kwargs):
                return rec.call(_hook, _fn, args, kwargs)

            functools.update_wrapper(wrapper, fn)
            setattr(owner, method, classmethod(wrapper) if is_cm else wrapper)
            self._saved.append((owner, method, raw))
        return rec

    def __exit__(self, *exc) -> None:
        for owner, method, raw in reversed(self._saved):
            setattr(owner, method, raw)
        self._saved.clear()
