"""In-memory span tracing for the benchmark's traced runs.

A span is (name, start, end, parent, counters).  Spans are recorded by
wrapping package functions at the attribute their caller looks up at call
time, so the package itself is not modified.  Nothing is written until the
run ends; `write_spans` then dumps them as JSON lines.
"""

import json
import time
from statistics import median


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, counters]
        self._stack = []
        self._patches = []

    def call(self, name, fn, *args, count=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; count(result) -> counters."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span[4] = count(result)
        return result

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a traced wrapper until `restore`."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, count=count, **kwargs)

        traced.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover.

    Spans come from one thread and nest, so the children of a span never
    overlap and their durations add up to the covered time.
    """
    selfs = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


class LayerStats:
    """Aggregates of the spans with one name."""

    def __init__(self, spans, selfs, name):
        picked = [(s, d) for s, d in zip(spans, selfs) if s[0] == name]
        self.durations = [s[2] - s[1] for s, _ in picked]
        self.calls = len(picked)
        self.ms = 1e3 * sum(self.durations)
        self.self_ms = 1e3 * sum(d for _, d in picked)
        self.us_p50 = 1e6 * median(self.durations) if self.durations else 0.0
        self.counters = [s[4] or {} for s, _ in picked]

    def total(self, key):
        return sum(c.get(key, 0) for c in self.counters)

    def maximum(self, key):
        return max((c.get(key, 0) for c in self.counters), default=0)


def write_spans(path, spans):
    with open(path, "w") as f:
        for name, start, end, parent, counters in spans:
            f.write(json.dumps({
                "name": name, "start": start, "end": end,
                "parent": parent, "counters": counters,
            }) + "\n")
