"""Spans around calls into the program's layers, recorded from the
benchmark's side of each call.

A span has a name ``<layer>.<operation>``, a start, an end and the span
that was open when it began.  Spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover; the collector's pauses are spans of their own
(``gc.collect``), so they are charged to ``gc`` and not to the layer that
happened to trigger them.
"""

from __future__ import annotations

import functools
import gc
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# Spans kept for the written trace; past this only the per-name totals
# grow, so a fine-grained span (one per token) cannot exhaust memory.
KEEP_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.dropped = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []     # [id, name, start, child_ns]
        self._next_id = 1

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter_ns(), 0])
        self._next_id += 1

    def end(self) -> None:
        now = perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = now - start
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, parent[0] if parent else 0, name,
                               start, now))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.begin("gc.collect")
        else:
            self.end()

    def start_gc(self) -> None:
        gc.callbacks.append(self._gc_callback)

    def stop_gc(self) -> None:
        gc.callbacks.remove(self._gc_callback)

    def snapshot(self) -> tuple[dict[str, int], dict[str, int]]:
        return dict(self.self_ns), dict(self.calls)

    def write(self, path, summary: dict) -> None:
        """Write the kept spans and ``summary`` as one JSON document."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"summary": summary, "dropped_spans": self.dropped,
                       "spans": [dict(id=i, parent=p, name=n, start_ns=s,
                                      end_ns=e)
                                 for i, p, n, s, e in self.spans]}, f)


def diff(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)}


@contextmanager
def patched(targets):
    """Temporarily replace attributes: ``targets`` is a list of
    (object, attribute name, replacement)."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, new in targets:
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)
