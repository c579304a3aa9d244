"""Spans recorded around the benchmark's own calls into each layer.

A span is (name, start, end, parent, job, counts).  Spans live in memory
and are written out once, when the run ends.  A public call that hides
another layer is followed by a direct call of that layer on the same input,
recorded as the first call's child: the child stands in for the hidden
work, so the parent's self time (its duration minus its children's) is
the part no replay accounts for.
"""
from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    counts: dict = field(default_factory=dict)


class Tracer:
    on = True

    def __init__(self):
        self.spans: list[Span] = []
        self._parents: list[int | None] = [None]
        self._job: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        self.spans.append(Span(name, start, end, self._parents[-1], self._job))
        return out

    def note(self, **counts) -> None:
        """Attach counts to the span recorded last."""
        self.spans[-1].counts.update(counts)

    @contextlib.contextmanager
    def replaying(self):
        """Record the calls made inside as children of the last span."""
        self._parents.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._parents.pop()

    @contextlib.contextmanager
    def job(self, kind: str, job_id: int):
        index = len(self.spans)
        self.spans.append(Span(f"job.{kind}", time.perf_counter(), 0.0, None, job_id))
        self._parents.append(index)
        self._job = job_id
        try:
            yield
        finally:
            self._parents.pop()
            self._job = None
            self.spans[index].end = time.perf_counter()

    def dump(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.job, s.counts] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "counts"],
                       "spans": rows}, fh)


class NullTracer:
    """Tracing off: calls run bare and no replay is made."""

    on = False

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def note(self, **counts) -> None:
        pass

    def replaying(self):
        return contextlib.nullcontext()

    def job(self, kind: str, job_id: int):
        return contextlib.nullcontext()


def layer_totals(spans: list[Span], factor) -> dict[str, dict]:
    """Per span name: calls, summed self time and summed counts.  Each
    duration is multiplied by `factor(start, end)`, the host-speed scale at
    the time the span ran, so that a replay run moments after the call it
    stands in for is compared at the same host speed."""
    durations = [(s.end - s.start) * factor(s.start, s.end) for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, durations):
        if s.parent is not None:
            child_time[s.parent] += d
    totals: dict[str, dict] = {}
    for s, d, covered in zip(spans, durations, child_time):
        t = totals.setdefault(s.name, {"calls": 0, "self_s": 0.0, "counts": {}})
        t["calls"] += 1
        t["self_s"] += d - covered
        for key, value in s.counts.items():
            t["counts"][key] = t["counts"].get(key, 0) + value
    return totals
