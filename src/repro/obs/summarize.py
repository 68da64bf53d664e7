"""Read an obs NDJSON file back into a span tree and a metrics report.

``stalloc-repro obs summarize obs.ndjson`` is the human end of the pipeline:
it validates every line against the version-1 schema (:func:`load_events`
refuses files from unknown writers or with malformed events -- the same
guard CI runs), rebuilds the span hierarchy from (pid, span id, parent)
references, aggregates spans by their name-path, and prints a time breakdown
plus the merged metric totals.

Aggregation is by *path* (the chain of span names from the root), not bare
name: ``tracegen.generate`` under ``sweep.point`` and under ``search`` are
different rows, which is what makes the breakdown answer "where did this
sweep's wall time go".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import validate_event


def load_events(source: str | Path, *, validate: bool = True) -> list[dict]:
    """Parse one NDJSON file into event dicts, validating each line.

    Raises :class:`ValueError` naming the line number of the first malformed
    or version-incompatible line; a file without a ``meta`` header is
    rejected too (nothing stamped its writer's schema version).
    """
    events: list[dict] = []
    with Path(source).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{source}:{number}: not valid JSON: {error}") from None
            if validate:
                try:
                    validate_event(event)
                except ValueError as error:
                    raise ValueError(f"{source}:{number}: {error}") from None
            events.append(event)
    if validate and not any(event.get("type") == "meta" for event in events):
        raise ValueError(f"{source}: no 'meta' header line (not an obs NDJSON file?)")
    return events


@dataclass
class PathStat:
    """Aggregate of every span sharing one name-path."""

    path: tuple[str, ...]
    count: int = 0
    total_seconds: float = 0.0
    child_seconds: float = 0.0

    @property
    def name(self) -> str:
        return self.path[-1]

    @property
    def depth(self) -> int:
        return len(self.path) - 1

    @property
    def self_seconds(self) -> float:
        """Time spent in these spans outside any recorded child span."""
        return max(0.0, self.total_seconds - self.child_seconds)


@dataclass
class ObsSummary:
    """Everything ``obs summarize`` reports, in queryable form."""

    spans: int = 0
    #: Aggregates in depth-first display order (parents before children).
    tree: list[PathStat] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Union of root-span wall intervals: total observed wall seconds.
    wall_seconds: float = 0.0

    def to_text(self) -> str:
        lines = [f"== obs summary: {self.spans} spans, {self.wall_seconds:.3f}s wall =="]
        if self.tree:
            lines.append("span tree (total seconds, count; children indented):")
            width = max(2 * stat.depth + len(stat.name) for stat in self.tree) + 2
            for stat in self.tree:
                label = "  " * stat.depth + stat.name
                lines.append(
                    f"  {label.ljust(width)} {stat.total_seconds:>10.3f}s"
                    f"  x{stat.count:<6d} self {stat.self_seconds:>9.3f}s"
                )
        if self.metrics.counters:
            lines.append("counters:")
            for name in sorted(self.metrics.counters):
                lines.append(f"  {name:40s} {self.metrics.counters[name]:>14,g}")
        if self.metrics.gauges:
            lines.append("gauges:")
            for name in sorted(self.metrics.gauges):
                lines.append(f"  {name:40s} {self.metrics.gauges[name]:>14,g}")
        if self.metrics.histograms:
            lines.append("histograms (count / mean / max):")
            for name in sorted(self.metrics.histograms):
                stat = self.metrics.histograms[name]
                lines.append(
                    f"  {name:40s} {stat.count:>8d} / {stat.mean:,.1f} / {stat.max:,.1f}"
                )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "spans": self.spans,
            "wall_seconds": self.wall_seconds,
            "tree": [
                {
                    "path": list(stat.path),
                    "count": stat.count,
                    "total_seconds": stat.total_seconds,
                    "self_seconds": stat.self_seconds,
                }
                for stat in self.tree
            ],
            "metrics": self.metrics.snapshot(),
        }


def _interval_union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    end_cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= end_cursor:
            continue
        total += end - max(start, end_cursor)
        end_cursor = end
    return total


def summarize_events(events: list[dict]) -> ObsSummary:
    """Aggregate parsed events (see :func:`load_events`) into a summary."""
    summary = ObsSummary()
    spans = [event for event in events if event.get("type") == "span"]
    summary.spans = len(spans)
    for event in events:
        if event.get("type") == "metrics":
            summary.metrics.merge(event)

    # Resolve each span's name-path by chasing parent references.  Span ids
    # are unique per process, so keys are (pid, span); a cross-process parent
    # (worker spans re-parented by Tracer.absorb) names its pid explicitly.
    by_key = {(event["pid"], event["span"]): event for event in spans}
    paths: dict[tuple[int, int], tuple[str, ...]] = {}

    def path_of(key: tuple[int, int]) -> tuple[str, ...]:
        # Iterative with a cycle guard: a corrupt file with a parent loop
        # degrades to treating the repeated span as a root, never recursing.
        chain: list[tuple[int, int]] = []
        walking: set[tuple[int, int]] = set()
        path = ()
        while True:
            known = paths.get(key)
            if known is not None:
                path = known
                break
            chain.append(key)
            walking.add(key)
            event = by_key[key]
            parent_id = event.get("parent")
            parent_key = (event.get("parent_pid", event["pid"]), parent_id)
            if parent_id is None or parent_key not in by_key or parent_key in walking:
                break
            key = parent_key
        for key in reversed(chain):
            path = path + (by_key[key]["name"],)
            paths[key] = path
        return path

    stats: dict[tuple[str, ...], PathStat] = {}
    roots: list[tuple[float, float]] = []
    for event in spans:
        path = path_of((event["pid"], event["span"]))
        stat = stats.get(path)
        if stat is None:
            stat = stats[path] = PathStat(path=path)
        stat.count += 1
        stat.total_seconds += event["dur"]
        if len(path) > 1:
            parent_stat = stats.get(path[:-1])
            if parent_stat is None:
                parent_stat = stats[path[:-1]] = PathStat(path=path[:-1])
            parent_stat.child_seconds += event["dur"]
        else:
            roots.append((event["start"], event["start"] + event["dur"]))

    summary.tree = sorted(stats.values(), key=lambda stat: stat.path)
    summary.wall_seconds = _interval_union_seconds(roots)
    return summary


def summarize_file(source: str | Path, *, validate: bool = True) -> ObsSummary:
    """Load, validate, and aggregate one NDJSON file."""
    return summarize_events(load_events(source, validate=validate))
