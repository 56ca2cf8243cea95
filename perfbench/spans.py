"""Spans, overlap-based self time and percentiles for the serving benchmark.

A span is one timed call into a layer's public function:
``(name, start_ns, end_ns, thread_id, count)`` with monotonic-ns bounds
and an optional work count (pairs scored, for example).  The traced
launcher records spans in memory and writes them out at exit; the
benchmark reads them back and reduces them here.

Self time follows the rule "span duration minus the part of its
interval covered by child spans, on any thread": a parent's children
are named by layer, and every child span overlapping the parent's
interval counts, whichever thread ran it.  The engine, for example,
runs on the scorer's worker thread while the HTTP handler thread waits
inside ``BatchingScorer.score_pairs``.

Stdlib only: the client process of the benchmark never imports numpy.
"""

from __future__ import annotations

import bisect
import json
import math
import threading
import time

__all__ = ["Coverage", "SpanRecorder", "load_spans", "nested_count",
           "percentile", "self_times", "summarize"]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation.

    Matches ``numpy.percentile``'s default method: rank ``q/100 * (n-1)``
    between the two nearest order statistics.  An empty input is NaN.
    """
    ordered = sorted(values)
    if not ordered:
        return math.nan
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within [0, 100]: {q}")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Coverage:
    """The union of a set of intervals, answering overlap queries.

    ``covered(start, end)`` is the length of ``[start, end]`` that lies
    inside at least one interval; each query is two binary searches
    over the merged union plus a prefix sum.
    """

    def __init__(self, intervals):
        merged: list[list[int]] = []
        for start, end in sorted(intervals):
            if end <= start:
                continue
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        self._starts = [start for start, _ in merged]
        self._ends = [end for _, end in merged]
        self._prefix = [0]
        for start, end in merged:
            self._prefix.append(self._prefix[-1] + end - start)

    def covered(self, start: int, end: int) -> int:
        """Length of ``[start, end]`` inside the union."""
        if end <= start or not self._starts:
            return 0
        # merged intervals lie wholly inside (start, end) between
        # first and last; only the two boundary ones can be clipped
        first = bisect.bisect_right(self._ends, start)
        last = bisect.bisect_left(self._starts, end)
        if first >= last:
            return 0
        total = self._prefix[last] - self._prefix[first]
        total -= max(0, start - self._starts[first])
        total -= max(0, self._ends[last - 1] - end)
        return total


def self_times(parents, children, same_thread: bool = False) -> list[int]:
    """Self time (ns) of each parent span given its layer's child spans.

    ``parents`` and ``children`` are span tuples; every child interval
    is merged into one union first, so children that overlap each
    other (two threads, or nested calls) are not subtracted twice.
    By default a child on any thread covers the parent; with
    ``same_thread`` only children run by the parent's own thread do
    (a route handler and the service call it makes, for example, where
    a concurrent request's service call must not count).
    """
    if not same_thread:
        coverage = Coverage((span[1], span[2]) for span in children)
        return [(span[2] - span[1]) - coverage.covered(span[1], span[2])
                for span in parents]
    by_thread: dict[int, list] = {}
    for span in children:
        by_thread.setdefault(span[3], []).append((span[1], span[2]))
    coverages = {thread: Coverage(intervals)
                 for thread, intervals in by_thread.items()}
    empty = Coverage(())
    return [(span[2] - span[1])
            - coverages.get(span[3], empty).covered(span[1], span[2])
            for span in parents]


def nested_count(parents, children) -> int:
    """Summed work count of the ``children`` that start inside one of
    the ``parents`` spans run by the same thread."""
    by_thread: dict[int, list] = {}
    for span in parents:
        by_thread.setdefault(span[3], []).append((span[1], span[2]))
    coverages = {thread: Coverage(intervals)
                 for thread, intervals in by_thread.items()}
    return sum(span[4] for span in children
               if span[3] in coverages
               and coverages[span[3]].covered(span[1], span[1] + 1))


def summarize(spans, name: str, windows=None, children: tuple = (),
              same_thread: bool = False) -> dict:
    """Calls, mean wall ms, mean self ms and summed count of one layer.

    Only spans of ``name`` that start inside one of the ``(start_ns,
    end_ns)`` ``windows`` are summarized (the timed phases; ``None``
    keeps every span); child spans of the names in ``children`` are
    taken from the whole record, so a child that began just before a
    window still covers its parent.
    """
    own = [span for span in spans if span[0] == name
           and (windows is None
                or any(start <= span[1] <= end for start, end in windows))]
    calls = len(own)
    if not calls:
        return {"calls": 0, "wall_ms": 0.0, "self_ms": 0.0, "busy_ms": 0.0,
                "count": 0}
    wall = [span[2] - span[1] for span in own]
    kids = [span for span in spans if span[0] in children]
    selves = self_times(own, kids, same_thread) if children else wall
    return {
        "calls": calls,
        "wall_ms": sum(wall) / calls / 1e6,
        "self_ms": sum(selves) / calls / 1e6,
        "busy_ms": sum(wall) / 1e6,
        "count": sum(span[4] for span in own),
    }


class SpanRecorder:
    """In-memory span sink with a decorator-style wrapper.

    ``list.append`` is atomic under the interpreter lock, so wrapped
    functions may run on any thread without extra locking.  Spans are
    written once, by :meth:`dump`, when the traced process exits.
    """

    def __init__(self):
        self.spans: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` timed as span ``name``; ``count(args)`` sizes the work."""
        spans = self.spans
        clock = time.monotonic_ns
        ident = threading.get_ident

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, start, clock(), ident(),
                              count(args) if count is not None else 0))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, path: str) -> None:
        """Write every recorded span to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle, separators=(",", ":"))


def load_spans(path: str) -> list[tuple]:
    """Spans written by :meth:`SpanRecorder.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)["spans"]]
