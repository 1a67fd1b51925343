"""In-memory spans around calls into sscluster's layers.

Spans are recorded only by wrappers that the benchmark installs on module
attributes for the duration of one traced operation; the package itself
carries no tracing code. ``Tracer.installed`` always puts the original
functions back, so untraced operations run exactly the shipped code.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    """Records nested spans and per-layer counters of one phase of a run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = self.clock()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def wrap(self, fn, name: str, observe=None):
        """``fn`` inside a span named ``name``; ``observe(tracer, result)``
        runs after the span closes, so counting is not timed."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result
        return traced

    @contextmanager
    def installed(self, targets):
        """Replace each ``(module, attr, span_name, observe)`` target with a
        traced wrapper, restoring every original on exit, error or not."""
        saved = []
        try:
            for module, attr, name, observe in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total seconds ``s``, seconds ``self_s`` not covered by
    child spans, and the number of ``calls``.

    Spans come from one thread, so the children of a span never overlap.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    out: dict[str, dict[str, float]] = {}
    for s, covered in zip(spans, child_s):
        t = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        t["calls"] += 1
        t["s"] += s.end - s.start
        t["self_s"] += s.end - s.start - covered
    return out
