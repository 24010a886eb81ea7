"""In-memory spans around the public wildrail calls the benchmark makes.

A span has a name, a start and an end in ``time.perf_counter_ns`` units, and
the index of the span that was open when it began (-1 for none).  On Linux
that clock is the system-wide monotonic clock, so spans recorded in a child
process nest by time inside the span the parent process holds around it.
Spans are kept in compact columns, because holdout-analytics records one
``km_to_geo`` span per accident, hundreds of thousands per pass, and are
written out once, when the run ends.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable

now_ns = time.perf_counter_ns


def direct(name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Untraced stand-in for ``Tracer.call``."""
    return fn(*args, **kwargs)


class Tracer:
    """Records one span per ``call``; a call made inside another is its child."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._open: list[int] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(0)
        self.end.append(0)
        self._open.append(index)
        start = now_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = now_ns()
            self.start[index] = start
            self._open.pop()

    def adopt(self, doc: dict, parent: int) -> None:
        """Append spans another tracer wrote with ``to_json``, under span ``parent``."""
        base = len(self.start)
        for nid, start, end, p in zip(doc["name"], doc["start"], doc["end"], doc["parent"]):
            self.name.append(self._name_id(doc["names"][nid]))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent if p < 0 else base + p)

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus its direct children's."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for s, e, p in zip(self.start, self.end, self.parent):
            if p >= 0:
                own[p] -= e - s
        totals = dict.fromkeys(self.names, 0.0)
        for nid, ns in zip(self.name, own):
            totals[self.names[nid]] += ns / 1e9
        return totals

