"""In-memory span recorder for the traced run, and its self-time arithmetic.

Spans are recorded by the benchmark's own files around calls into each
layer's public functions; nothing inside ``src/repro`` is touched.  A span is
a plain dict -- ``id``, ``name``, ``parent`` (the id of the span that was open
when it started, or None), ``start``, ``end`` (``time.perf_counter`` seconds)
and ``point`` (the sweep-point index shared by all spans of one point) -- so
the list serialises to JSON as is.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class SpanLog:
    """Records nested spans in memory; written out when the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[dict] = []
        self._clock = clock
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "point": parent.get("point") if parent else None,
            **attrs,
            "start": self._clock(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = self._clock()
            self._open.pop()


def self_seconds(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once (interval union), so a span's self time is never
    negative and the self times of a tree sum to its root's duration.
    """
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children[span["id"]], key=lambda item: item["start"]):
            low = max(child["start"], cursor)
            high = min(child["end"], span["end"])
            if high > low:
                covered += high - low
                cursor = high
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def busy_by_name(spans: list[dict]) -> dict[str, float]:
    """Sum of self seconds per span name: the time each layer was busy."""
    own = self_seconds(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += own[span["id"]]
    return dict(totals)
