"""Span recording around calls into slanglex, for the traced run.

The tracer replaces names in a module namespace with wrappers that record
one span per call: name, start, end and the index of the enclosing span.
Spans stay in memory; ``summary`` turns them into per-name totals and
per-layer self time (span time minus the time of its child spans).
"""
from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a recording wrapper. ``count`` maps
        (args, kwargs, result) to counters added under ``name``."""
        func = getattr(module, attr)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if count is not None:
                try:
                    counted = count(args, kwargs, result)
                except Exception:  # the program changed shape; count the miss
                    counted = {"count_errors": 1}
                for key, value in counted.items():
                    key = f"{name}.{key}"
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        setattr(module, attr, traced)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans only)
        and self seconds; per layer (name up to the first dot): self
        seconds; plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        names: dict[str, dict] = {}
        layers: dict[str, float] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            self_s = end - start - child_time[i]
            entry["calls"] += 1
            entry["self_s"] += self_s
            if not self._inside(parent, name):
                entry["total_s"] += end - start
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        roots = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return {"names": names, "layer_self_s": layers, "counts": self.counts,
                "root_s": roots, "spans": len(self.spans)}

    def _inside(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False
