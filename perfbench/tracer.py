"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start_ns, end_ns, parent index, operation id).  Span
names are ``<layer>.<function>``; the layer is the phyenergy module
whose public function the span wraps, or ``bench`` for the
benchmark's own work around an operation.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    def span(self, name: str):
        return _NO_SPAN

    def next_op(self) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "index", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.index)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.index] = (self.name, self.start, end, self.parent, tr.op)
        return False


class Tracer:
    """Records spans in memory; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def next_op(self) -> None:
        self.op += 1

    def durations_us(self, name: str) -> list[float]:
        return [(end - start) / 1e3
                for n, start, end, _, _ in self.spans if n == name]

    def median_us(self, name: str) -> float:
        return statistics.median(self.durations_us(name))

    def self_time_us(self) -> dict[str, float]:
        """Self time per layer over the loop's operations (op id >= 1):
        span time not covered by child spans."""
        child_ns = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op >= 1:
                layer = name.split(".", 1)[0]
                out[layer] += (end - start - child_ns[i]) / 1e3
        return dict(out)

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra, fields=["name", "start_ns", "end_ns", "parent", "op"],
                   spans=self.spans)
        path.write_text(json.dumps(doc))
