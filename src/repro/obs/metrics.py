"""Metrics registry: counters, gauges, and summary histograms.

A :class:`MetricsRegistry` is a plain in-process accumulator -- instruments
call :meth:`count` / :meth:`observe` and the registry keeps running totals.
No instrument sets a gauge today; the ``gauges`` map is kept in the snapshot
format (and merged last-write-wins) so recordings keep one schema.  Process
safety comes from the *delta* protocol rather than shared memory: each worker
process accumulates into its own registry and serializes a :meth:`snapshot`
back with its result, which the orchestrating process folds in with
:meth:`merge`.  Snapshots are additive for counters and
histograms and last-write-wins for gauges, so merging worker deltas in any
order yields the same totals an in-process run would have produced.

Histograms deliberately store summary statistics (count / sum / min / max)
instead of buckets: every metric in this toolchain feeds either the progress
line or the ``obs summarize`` report, both of which print rates and means,
and summary stats merge exactly across processes where bucket boundaries
would have to be pre-agreed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class HistogramStat:
    """Mergeable summary statistics of one observed distribution."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }

    def merge(self, other: dict) -> None:
        count = int(other.get("count", 0))
        if count <= 0:
            return
        self.count += count
        self.total += float(other.get("total", 0.0))
        self.min = min(self.min, float(other.get("min", float("inf"))))
        self.max = max(self.max, float(other.get("max", float("-inf"))))


class MetricsRegistry:
    """Accumulates named counters, gauges, and histograms for one process."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, HistogramStat] = {}

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` (default 1) to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one sample of the distribution ``name``."""
        stat = self.histograms.get(name)
        if stat is None:
            stat = self.histograms[name] = HistogramStat()
        stat.observe(value)

    def snapshot(self) -> dict:
        """JSON-safe copy of every metric (the cross-process delta payload)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {name: stat.as_dict() for name, stat in self.histograms.items()},
        }

    def merge(self, delta: dict) -> None:
        """Fold a worker's :meth:`snapshot` into this registry.

        Counters and histograms add; gauges take the delta's value (the
        worker observed it later than this process's own last write).
        """
        for name, value in delta.get("counters", {}).items():
            self.count(name, value)
        self.gauges.update(delta.get("gauges", {}))
        for name, payload in delta.get("histograms", {}).items():
            stat = self.histograms.get(name)
            if stat is None:
                stat = self.histograms[name] = HistogramStat()
            stat.merge(payload)

    def __bool__(self) -> bool:
        return bool(self.counters or self.gauges or self.histograms)
