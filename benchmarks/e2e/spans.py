"""Bench-side spans: the benchmark's own trace of the calls it makes.

A span carries a name, start, end, the id of the span that caused it, and
the id of the op it belongs to.  Spans stay in memory and are written out
once, when the benchmark ends.  They are opened only around synchronous
calls (or around a single awaited call while no other bench task runs), so
one stack is enough.

This is deliberately not ``repro.obs``: the per-layer budget must not move
when the program's own instrumentation does.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Name of the root span of every traced op.
OP = "op"


class Tracer:
    """Records spans; ``self_times`` turns them into a per-layer budget."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[Dict[str, object]] = []
        self._op: Optional[int] = None

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, object]]:
        record: Dict[str, object] = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self._op,
            "name": name,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: int) -> Iterator[Dict[str, object]]:
        """The root span of one op; every span opened inside shares its id."""
        self._op = op_id
        try:
            with self.span(OP) as record:
                yield record
        finally:
            self._op = None

    def durations(self, name: str) -> List[float]:
        """Seconds of every span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name.

        A span's self time is its duration minus the part of that interval
        its child spans cover.
        """
        children: Dict[int, List[Dict[str, object]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        totals: Dict[str, float] = {}
        for span in self.spans:
            covered = 0.0
            reach = span["start"]
            for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
                start = max(child["start"], reach)
                end = min(child["end"], span["end"])
                if end > start:
                    covered += end - start
                    reach = end
            own = (span["end"] - span["start"]) - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals
