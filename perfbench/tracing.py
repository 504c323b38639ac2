"""In-memory spans recorded by the benchmark around its calls into recomp.

A span has a name, start, end, parent span and request id.  Spans are
kept in a list while a pass runs and written out once at the end.  A
layer's self time is a span's duration minus the time its child spans
cover; children of one span never overlap, because a pass is single
threaded, so that is the duration minus the sum of child durations.

`NullTracer` is what untraced passes use: its spans and counters do
nothing, so the untraced pass runs the same code path minus the
recording.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Iterator

_NULL_SPAN = nullcontext()


class NullTracer:
    on = False

    def span(self, name: str, request: int | None = None):
        return _NULL_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        pass


class Tracer:
    on = True

    def __init__(self) -> None:
        # one row per span: [name, start, end, parent index, request id]
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent][4]
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, request])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start - covered)
        return out

    def write(self, path: str) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "request": r}
            for n, s, e, p, r in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)
