"""Spans recorded from outside the program, around its entry points.

:class:`Tracer` replaces each wrapped function or method with a thin
wrapper that appends one span -- layer, start, end, parent span -- to
an in-memory list; nothing is written until the run ends.  Self time
is derived from the nesting afterwards: a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

from perfbench.layers import LAYERS, MODEL_INDEX, OPS_APPLY


class Tracer:
    """Installs the layer wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.layer_names: list[str] = [layer.name for layer in LAYERS]
        #: One ``[layer id, start, end, parent span index or -1]`` per call.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Spans are recorded only while this is set (the timed sections).
        self.active = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        for layer_id, layer in enumerate(LAYERS):
            for owner, attribute in _sites(layer):
                self._patch(owner, attribute, layer_id)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner: object, attribute: str, layer_id: int) -> None:
        original = getattr(owner, attribute) if inspect.ismodule(owner) \
            else owner.__dict__[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(original, layer_id))

    def _wrap(self, function, layer_id: int):
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            record = [layer_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive ms and self ms.

        Inclusive time counts only spans with no ancestor of the same
        layer, so a recursive entry point is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        result = {
            name: {"calls": 0, "ms": 0.0, "self_ms": 0.0}
            for name in self.layer_names
        }
        for index, (layer_id, start, end, parent) in enumerate(spans):
            entry = result[self.layer_names[layer_id]]
            entry["calls"] += 1
            entry["self_ms"] += (end - start - child_time[index]) * 1000.0
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != layer_id:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry["ms"] += (end - start) * 1000.0
        return result

    def top_level_ms(self) -> float:
        """Total duration of the spans no other span encloses."""
        return sum(
            end - start for _, start, end, parent in self.spans if parent < 0
        ) * 1000.0


def _sites(layer) -> list[tuple[object, str]]:
    """Resolve a layer's wrap sites to (module or class, attribute)."""
    if layer.name == OPS_APPLY:
        from repro.ops.registry import OPERATION_CLASSES

        definers: list[type] = []
        for cls in OPERATION_CLASSES:
            definer = next(k for k in cls.__mro__ if "apply" in k.__dict__)
            if definer not in definers:
                definers.append(definer)
        return [(definer, "apply") for definer in definers]
    if layer.name == MODEL_INDEX:
        from repro.model.index import SchemaIndex

        return [
            (SchemaIndex, name)
            for name, value in vars(SchemaIndex).items()
            if inspect.isfunction(value)
            and not name.startswith("_")
            and name not in ("stats", "reset_stats")
        ]
    sites = []
    for module_name, owner_name, attribute in layer.sites:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        sites.append((owner, attribute))
    return sites
