"""The result-row schema, the sweep result container and its writers.

:data:`ROW_COLUMNS` declares every column a result row can hold, once and in
output order: where its value comes from and what ``--compare`` does with it.
The sweep engine builds each row from it, and ``repro.sweep.compare`` derives
its identity and metric columns from it, so adding a column is one entry here.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.workloads.parallelism import rank_label


@dataclass(frozen=True)
class Column:
    """One result-row column: its value and its role in ``--compare``."""

    name: str
    #: ``value(point, job)`` for a finished :class:`~repro.sweep.spec.SweepPoint`
    #: and its :class:`~repro.simulator.runner.JobRun`; ``None`` leaves the
    #: column out of that row.  Without one, the row's producer stamps it.
    value: Callable | None = None
    #: Names the measurement: ``--compare`` matches rows across runs on these.
    identity: bool = False
    #: The change ``--compare`` flags: +1 bigger is worse, -1 smaller is worse,
    #: 0 reports the delta but never flags it, ``None`` is not diffed.
    direction: int | None = None


def _rank(rank):
    """A pipeline rank as its int, a ``(pp, ep)`` coordinate as its label."""
    return rank if isinstance(rank, int) else rank_label(rank)


def _int_ranks_label(ranks) -> str:
    """Compact rendering of an int rank tuple: ``0``, ``0-3`` or ``0,2,5``."""
    if len(ranks) == 1:
        return str(ranks[0])
    if list(ranks) == list(range(ranks[0], ranks[-1] + 1)):
        return f"{ranks[0]}-{ranks[-1]}"
    return ",".join(str(rank) for rank in ranks)


def _ranks_label(ranks: tuple) -> str:
    """Compact rendering of a rank selection.

    Int tuples keep the historical forms (``0``, ``0-3``, ``0,2,5``) so rows
    of non-EP sweeps stay identical to earlier releases.  Coordinate tuples
    render as a cross product when they form a full grid (``0-1x ep0-3``) and
    as an explicit ``pp.ep`` list otherwise.
    """
    if not ranks or isinstance(ranks[0], int):
        return _int_ranks_label(ranks)
    pps = sorted({pp for pp, _ in ranks})
    eps = sorted({ep for _, ep in ranks})
    if len(ranks) == len(pps) * len(eps):
        return f"{_int_ranks_label(pps)}xep{_int_ranks_label(eps)}"
    return ",".join(rank_label(rank) for rank in ranks)


def _static_pool_gib(job) -> float | None:
    pool_bytes = job.binding_run.planning_report.get("static_pool_bytes")
    return round(pool_bytes / (1 << 30), 3) if pool_bytes else None


#: Every result-row column, in output order.  Efficiency and fragmentation are
#: the binding rank's; floats keep full precision (rounding is display-only,
#: :func:`_fmt`).  The last four computed columns appear only under
#: heterogeneous budgets, on OOM and with a STAlloc pool; the search planner
#: stamps ``search_rank``.  Only results files from before 1.25.0 carry
#: ``timing``, naming the backend that priced each row.
ROW_COLUMNS: tuple[Column, ...] = (
    Column("point", lambda point, job: point.index),
    Column("model", lambda point, job: point.config.model.name, identity=True),
    Column("config", lambda point, job: point.row_label, identity=True),
    Column("allocator", lambda point, job: point.allocator_label, identity=True),
    Column("seed", lambda point, job: point.seed, identity=True),
    Column("scale", lambda point, job: point.scale, identity=True),
    Column("device", lambda point, job: point.device_name, identity=True),
    Column("workload_kind", lambda point, job: point.config.workload_kind, identity=True),
    Column("decode_steps", lambda point, job: point.config.decode_steps, direction=0),
    Column("ranks", lambda point, job: _ranks_label(point.ranks), identity=True),
    Column("num_ranks", lambda point, job: job.num_ranks),
    Column("unique_ranks", lambda point, job: len(job.class_runs)),
    Column("status", lambda point, job: "ok" if job.success else "OOM"),
    Column("binding_rank", lambda point, job: _rank(job.binding_rank), direction=0),
    Column(
        "memory_efficiency_pct",
        lambda point, job: 100 * job.binding_run.memory_efficiency,
        direction=0,
    ),
    Column(
        "fragmentation_pct",
        lambda point, job: 100 * job.binding_run.fragmentation_ratio,
        direction=0,
    ),
    Column("allocated_gib", lambda point, job: job.peak_allocated_gib, direction=+1),
    Column("allocated_mean_gib", lambda point, job: job.mean_peak_allocated_gib, direction=0),
    Column("reserved_gib", lambda point, job: job.peak_reserved_gib, direction=+1),
    Column("comm_peak_bytes", lambda point, job: job.comm_peak_bytes, direction=+1),
    Column("kv_peak_bytes", lambda point, job: job.kv_peak_bytes, direction=+1),
    Column(
        "events_replayed", lambda point, job: sum(run.events_replayed for run in job.class_runs)
    ),
    Column("elapsed_seconds"),
    Column("cached", lambda point, job: False),
    Column("description", lambda point, job: point.config.describe()),
    Column("tflops_per_gpu", lambda point, job: job.timeline.tflops_per_gpu, direction=-1),
    Column("tokens_per_second", lambda point, job: job.timeline.tokens_per_second, direction=-1),
    Column("iteration_seconds", lambda point, job: job.timeline.iteration_seconds, direction=+1),
    Column("comm_seconds", lambda point, job: job.timeline.comm_seconds, direction=+1),
    Column("decode_seconds", lambda point, job: job.timeline.decode_seconds, direction=+1),
    Column("bubble_fraction", lambda point, job: job.timeline.bubble_fraction, direction=+1),
    Column("mfu", lambda point, job: job.timeline.mfu, direction=-1),
    Column(
        "binding_utilization",
        lambda point, job: job.binding_utilization if job.heterogeneous_budgets else None,
    ),
    Column(
        "oom_ranks",
        lambda point, job: None if job.success else [_rank(rank) for rank in job.oom_ranks],
    ),
    Column(
        "oom_at_event",
        lambda point, job: None if job.success else next(
            run.oom_at_event for run in job.class_runs if not run.success
        ),
    ),
    Column("static_pool_gib", lambda point, job: _static_pool_gib(job)),
    Column("search_rank", direction=+1),
    Column("timing", identity=True),
)


def column_union(rows: list[dict]) -> list[str]:
    """Union of row keys in first-seen order (rows may differ in fields)."""
    return list(dict.fromkeys(key for row in rows for key in row))


_DECLARED = {column.name: place for place, column in enumerate(ROW_COLUMNS)}


def row_columns(rows: list[dict]) -> list[str]:
    """The rows' columns in :data:`ROW_COLUMNS` order, undeclared ones after in first-seen order.

    A column only some rows carry (``oom_ranks`` on an OOM row) keeps its
    declared place even when the first row lacks it.
    """
    return sorted(column_union(rows), key=lambda name: _DECLARED.get(name, len(_DECLARED)))


def table_lines(rows: list[dict], columns: list[str]) -> list[str]:
    """``rows`` as column-aligned text: a header, a rule, then one line a row."""
    if not rows or not columns:
        return []
    cells = [[_fmt(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in cells)) for i, column in enumerate(columns)
    ]
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    return [header, "-" * len(header)] + [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)) for line in cells
    ]


@dataclass
class SweepResult:
    """All rows of one executed sweep, plus execution metadata."""

    spec_name: str
    rows: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    jobs: int = 1
    cache_dir: str | None = None
    cache_stats: dict = field(default_factory=dict)

    @property
    def num_points(self) -> int:
        return len(self.rows)

    @property
    def num_cached(self) -> int:
        """Rows served from the persistent result cache."""
        return sum(1 for row in self.rows if row.get("cached"))

    # ------------------------------------------------------------------ #
    # Output formats
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict:
        return {
            "spec": self.spec_name,
            "num_points": self.num_points,
            "num_cached": self.num_cached,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "cache_stats": self.cache_stats,
            "rows": self.rows,
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), indent=2) + "\n", encoding="utf-8")

    def write_csv(self, path: str | Path) -> None:
        columns = row_columns(self.rows)
        with Path(path).open("w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns, restval="")
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)

    def write(self, path: str | Path) -> None:
        """Write to ``path``, picking the format from its extension (.json/.csv).

        The extension check is case-insensitive, so ``results.JSON`` (as
        produced by e.g. case-preserving tooling on Windows) works too.
        """
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix == ".json":
            self.write_json(path)
        elif suffix == ".csv":
            self.write_csv(path)
        else:
            raise ValueError(f"unsupported output extension {path.suffix!r}; use .json or .csv")

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepResult":
        """Rebuild a result from the document :meth:`as_dict` produced."""
        return cls(
            spec_name=payload.get("spec", ""),
            rows=list(payload.get("rows", [])),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            jobs=int(payload.get("jobs", 1)),
            cache_dir=payload.get("cache_dir"),
            cache_stats=dict(payload.get("cache_stats", {})),
        )

    @classmethod
    def load(cls, path: str | Path) -> "SweepResult":
        """Read a results file written by :meth:`write_json` (``--compare`` input)."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or "rows" not in payload:
            raise ValueError(f"{path} is not a sweep results file (no 'rows' key)")
        return cls.from_dict(payload)

    def to_text(self, *, max_rows: int | None = None) -> str:
        """Column-aligned plain-text rendering (what the CLI prints)."""
        shown = self.rows if max_rows is None else self.rows[:max_rows]
        lines = [
            f"== sweep {self.spec_name}: {self.num_points} points, "
            f"{self.num_cached} cached, {self.elapsed_seconds:.2f}s with jobs={self.jobs} =="
        ]
        lines += table_lines(shown, [c for c in row_columns(self.rows) if c != "description"])
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)


def _fmt(value) -> str:
    """Display-only formatting of row values.

    Rounding happens here -- and only here -- so serialized rows keep full
    precision for ``--compare`` diffs.  Non-finite floats get explicit fixed
    labels instead of whatever ``format()`` produces, keeping columns aligned.
    """
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if value != 0.0 and abs(value) < 5e-4:
            # Sub-rounding magnitudes (e.g. sub-100us allocator overheads)
            # would render as "0.000"; show them in scientific notation so
            # they stay visible without widening every other column.
            return f"{value:.3e}"
        return f"{value:.3f}"
    if value is None:
        return ""
    return str(value)
