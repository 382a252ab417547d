"""Spans recorded from outside the package.

A traced run replaces the name bindings that consumer modules hold (for
example ``mapmp.schedulers.emp_update``) with wrappers that record one span
per call: name, parent span, start and end.  Spans stay in memory; self time
is computed from them after the run.  Nothing inside ``src/mapmp`` changes.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """In-memory span recorder.  Each span is ``[name, parent, start, end]``
    with ``parent`` the index of the enclosing span or -1."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, self.clock(), None])
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self._open.pop()
        self.spans[index][3] = self.clock()

    def wrap(self, name, fn):
        """``fn`` with a span around every call.  ``name`` is a string or a
        function of the call's positional arguments returning one."""
        name_of = name if callable(name) else (lambda *args: name)

        def traced(*args, **kwargs):
            index = self._enter(name_of(*args))
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)

        return traced

    def count(self, name: str, fn):
        """``fn`` with a call counter and no span: for calls too frequent
        and too short to time one by one."""

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def stats(self) -> dict[str, SpanStats]:
        return span_stats(self.spans)


def span_stats(spans) -> dict[str, SpanStats]:
    """Calls, total and self time per span name.  A span's self time is its
    duration minus the durations of its direct children; children of one
    parent run one after another, so they never overlap."""
    child_s = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, SpanStats] = {}
    for index, (name, _, start, end) in enumerate(spans):
        entry = out.setdefault(name, SpanStats())
        entry.calls += 1
        entry.total_s += end - start
        entry.self_s += end - start - child_s[index]
    return out


def child_seconds(spans, child: str) -> dict[str, float]:
    """Total time of the spans named ``child``, per name of their parent."""
    out: dict[str, float] = {}
    for name, parent, start, end in spans:
        if name == child and parent >= 0:
            out[spans[parent][0]] = out.get(spans[parent][0], 0.0) + end - start
    return out


@contextmanager
def patched(replacements):
    """Set ``module.attr = value`` for each ``(module, attr, value)`` and
    restore the original bindings on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
