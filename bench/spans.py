"""In-process span tracer for the benchmark's traced runs.

The tracer wraps public functions of ``memsc`` modules (and the layer and
network methods of one network instance) from the benchmark process. Each
call becomes a span with a name and a parent, the innermost open span.
Spans are folded into per-name totals as they close: call count, wall
time, the part of that time covered by child spans, and a work count
(elements, bits or images) chosen per span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    units: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._open: list[float] = []  # child time accumulated by each open span

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def wrap(self, fn, name, units=None):
        """Return fn recorded as a span; ``name`` may be a function of the call."""
        perf_counter = time.perf_counter
        stats = self.stats
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                key = name(args, kwargs) if callable(name) else name
                st = stats.get(key)
                if st is None:
                    st = stats[key] = SpanStats()
                st.calls += 1
                st.total_s += dt
                st.child_s += child
                if units is not None:
                    st.units += units(args, kwargs)

        return traced

    @contextmanager
    def patched(self, targets):
        """Install spans on ``(owner, attribute, name, units)`` targets, then restore.

        Owners are modules, classes or instances; a property is traced
        through its getter.
        """
        undo = []
        try:
            for owner, attr, name, units in targets:
                had_own = attr in vars(owner)
                original = vars(owner)[attr] if had_own else getattr(owner, attr)
                if isinstance(original, property):
                    wrapped = property(self.wrap(original.fget, name, units))
                else:
                    wrapped = self.wrap(original, name, units)
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, had_own, original))
            yield self
        finally:
            for owner, attr, had_own, original in reversed(undo):
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)
