"""Harness-side span recorder.

Spans are recorded by the benchmark's own files around calls into each
layer's public functions — nothing inside ``src/`` is instrumented.  They
stay in memory and are written out once, when the run ends.  A layer's
self time is its span's duration minus the part of that interval its
child spans cover (overlapping children — two load-generator threads —
are covered once, not twice).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional


class Tracer:
    """In-memory span list with a per-thread parent stack."""

    enabled = True

    def __init__(self, workload: str = "") -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self, name: str, *, op: Optional[str] = None,
        parent: Optional[int] = None,
    ) -> Iterator[int]:
        """Record one span; yields its id so threads can parent to it."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = len(self.spans)
            rec = {
                "id": sid, "name": name, "parent": parent,
                "workload": self.workload, "op": op,
                "start": time.perf_counter(), "end": None,
            }
            self.spans.append(rec)
        stack.append(sid)
        try:
            yield sid
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def extend(self, spans: list[dict]) -> None:
        """Adopt spans recorded in another process (ids re-based)."""
        with self._lock:
            base = len(self.spans)
            for rec in spans:
                rec = dict(rec)
                rec["id"] += base
                if rec["parent"] is not None:
                    rec["parent"] += base
                self.spans.append(rec)


class NullTracer:
    """Tracing off: the same surface, no clock reads, no allocation."""

    enabled = False
    spans: list = []

    @contextmanager
    def span(self, name: str, **_kw) -> Iterator[None]:
        yield None


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec["parent"] is not None and rec["end"] is not None:
            children.setdefault(rec["parent"], []).append(
                (rec["start"], rec["end"])
            )
    out = {}
    for rec in spans:
        if rec["end"] is None:
            continue
        dur = rec["end"] - rec["start"]
        out[rec["id"]] = dur - covered(
            children.get(rec["id"], []), rec["start"], rec["end"]
        )
    return out


def by_name(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, total duration and total self time."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for rec in spans:
        if rec["end"] is None:
            continue
        agg = out.setdefault(
            rec["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        agg["calls"] += 1
        agg["total_s"] += rec["end"] - rec["start"]
        agg["self_s"] += selfs[rec["id"]]
    return out
