"""In-memory span recorder.

A span is (name, start, end, parent span, run id).  Spans are kept in
memory and turned into per-layer metrics when the traced run ends.  The
program itself is not edited: a traced pass replaces module attributes
(public functions, as another module or the benchmark looks them up)
with the wrappers made here, and puts the originals back afterwards.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: int


@dataclass
class Tracer:
    """Spans of one traced pass (``run`` is its id) plus event counters."""

    run: int = 0
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        self.spans.append(Span(name, clock(), 0.0,
                               self.stack[-1] if self.stack else None,
                               self.run))
        self.stack.append(sid)
        try:
            yield
        except Exception:
            self.counts[name + ".failed"] += 1
            raise
        finally:
            self.stack.pop()
            self.spans[sid].end = clock()

    def inside(self, name: str) -> bool:
        """True while a span called `name` is open."""
        return any(self.spans[s].name == name for s in self.stack)

    def wrap(self, fn: Callable, name, on_result: Callable = None) -> Callable:
        """`fn` recording one span per call.  `name` may be a function of
        the call's arguments; `on_result` sees each return value."""
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def wrap_stream(self, fn: Callable, name: str, seen: list) -> Callable:
        """`fn(n, ...)` returning an iterator: every ``next`` on it becomes
        a span.  Once the iterator is exhausted, (fn name, n, items) is
        appended to `seen` and the items are added to ``counts[name]``."""
        def traced(n, *args, **kwargs):
            it = fn(n, *args, **kwargs)

            def drain():
                count = 0
                while True:
                    with self.span(name):
                        item = next(it, _END)
                    if item is _END:
                        break
                    count += 1
                    yield item
                seen.append((fn.__name__, n, count))
                self.counts[name] += count
            return drain()
        return traced

    # -- derived metrics -------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Duration of the `name` spans minus the time their direct
        children cover (children of one span never overlap: one thread)."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        return sum(s.end - s.start - child_time[i]
                   for i, s in enumerate(self.spans) if s.name == name)

    def calls_within(self, name: str, ancestor: str) -> int:
        """Number of `name` spans opened while an `ancestor` span was open."""
        def under(s: Span) -> bool:
            while s.parent is not None:
                s = self.spans[s.parent]
                if s.name == ancestor:
                    return True
            return False
        return sum(1 for s in self.spans if s.name == name and under(s))


_END = object()
