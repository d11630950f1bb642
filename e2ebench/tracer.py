"""Benchmark-side spans around the calls into each layer of the program.

Spans are recorded from the benchmark's own files only: around the
public calls a workload makes, and -- for layers called from inside the
program, such as ``scan_links`` inside ``detect_anomalies`` -- by
swapping the module attribute the caller looks the function up by.
Each span keeps its name, start, end, parent and operation id; all of
them stay in memory and are written once, when the run ends.

The untraced runs use :data:`NULL`, whose ``span`` is a shared no-op
context manager, so end-to-end timings carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    """In-memory span recorder with per-operation self times."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, op id]`` per span.
        self.spans: List[list] = []
        self.counts: Dict[int, Dict[str, float]] = {}
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self.op_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to a counter of the current operation."""
        bucket = self.counts.setdefault(self.op_id, {})
        bucket[name] = bucket.get(name, 0) + value

    def patch(self, owner, attr: str, name: Optional[str],
              on_result: Optional[Callable] = None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr`` (no span when ``name`` is None).

        ``on_result(tracer, result, args)`` may add counts from the
        call.  :meth:`unpatch` restores the original attribute.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                with self.span(name):
                    result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self, result, args)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self, op_id: int) -> Dict[str, float]:
        """Seconds per span name in one operation, minus the part of
        each span its child spans cover (children never overlap)."""
        child_time: Dict[int, float] = {}
        for name, start, end, parent, op in self.spans:
            if op == op_id and parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _parent, op) in enumerate(self.spans):
            if op == op_id:
                own = end - start - child_time.get(index, 0.0)
                totals[name] = totals.get(name, 0.0) + own
        return totals

    def covered(self, op_id: int) -> float:
        """Seconds of one operation covered by its top-level spans."""
        return sum(end - start for _n, start, end, parent, op in self.spans
                   if op == op_id and parent < 0)

    def dump(self, path) -> None:
        """Write every span and count as one JSON document."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": self.spans,
                "counts": {str(k): v for k, v in self.counts.items()},
            }, out)


class _NullTracer:
    """Tracing off: spans and counts cost one method call."""
    op_id = 0
    _null = contextlib.nullcontext()

    def span(self, _name: str):
        return self._null

    def count(self, _name: str, _value: float) -> None:
        pass


NULL = _NullTracer()
