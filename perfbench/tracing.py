"""In-memory spans around the benchmark's calls into each layer.

A span is ``(id, name, layer, start_ns, end_ns, parent, rid, scale)``:
``scale`` converts its wall time into reference seconds (see
:class:`perfbench.host.RefClock`).  Spans are kept in memory and written
out as JSON lines when the run ends.  Spans inside ``repro`` itself are not
recorded: every span here wraps a public call made from the benchmark.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    id: int
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    rid: Optional[str]
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        """Duration in reference seconds."""
        return (self.end_ns - self.start_ns) / 1e9 * self.scale


class Tracer:
    """Collects spans.  :meth:`span` always measures its block but records
    it only while :attr:`on`; :meth:`record` always records."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.on = False
        self._stack: List[int] = []
        self._next = 1

    def new_id(self) -> int:
        sid = self._next
        self._next += 1
        return sid

    @property
    def current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, layer: str,
             rid: Optional[str] = None) -> Iterator[List[int]]:
        """Time the block; yields a one-slot list that receives its
        duration in ns when the block exits normally."""
        out = [0]
        sid = self.new_id() if self.on else 0
        parent = self.current
        if self.on:
            self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield out
        finally:
            end = time.perf_counter_ns()
            out[0] = end - start
            if self.on:
                self._stack.pop()
                self.spans.append(Span(sid, name, layer, start, end,
                                       parent, rid))

    def record(self, name: str, layer: str, start_ns: int, end_ns: int,
               parent: Optional[int], rid: Optional[str] = None,
               sid: Optional[int] = None, scale: float = 1.0) -> None:
        """Record a span timed by the caller, such as one of several
        overlapping client requests; ``sid`` reuses an id handed out
        earlier by :meth:`new_id`."""
        self.spans.append(Span(sid if sid is not None else self.new_id(),
                               name, layer, start_ns, end_ns, parent, rid,
                               scale))

    def rescale(self, first: int, factor: float) -> None:
        """Set the reference-time scale of every span from index ``first``
        on (the spans of the interval the factor was measured over)."""
        for i in range(first, len(self.spans)):
            self.spans[i] = self.spans[i]._replace(scale=factor)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def _union_ns(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0
    end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if s >= e:
            continue
        if end is None or s > end:
            covered += e - s
            end = e
        elif e > end:
            covered += e - end
            end = e
    return covered


def self_seconds(spans: List[Span]) -> Dict[str, float]:
    """Self time per layer: each span's duration minus the part of its
    interval that its child spans cover, summed by layer.  Overlapping
    spans of one layer (concurrent requests) add up, so a layer's self
    time can exceed the wall time."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start_ns, span.end_ns))
    out: Dict[str, float] = {}
    for span in spans:
        own = span.end_ns - span.start_ns
        own -= _union_ns(children.get(span.id, []), span.start_ns,
                         span.end_ns)
        out[span.layer] = out.get(span.layer, 0.0) + own / 1e9 * span.scale
    return out


def self_seconds_per_root(spans: List[Span]) -> Dict[str, float]:
    """Median over root spans (passes, request blocks) of each layer's
    self time within that root."""
    parent_of = {span.id: span.parent for span in spans}

    def root(sid: int) -> int:
        while parent_of.get(sid) is not None:
            sid = parent_of[sid]
        return sid

    trees: Dict[int, List[Span]] = {}
    for span in spans:
        trees.setdefault(root(span.id), []).append(span)
    rows = [self_seconds(tree) for tree in trees.values()]
    layers = {layer for row in rows for layer in row}
    return {layer: statistics.median([row.get(layer, 0.0) for row in rows])
            for layer in layers}
