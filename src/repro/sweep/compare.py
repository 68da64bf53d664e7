"""Regression diffing between two sweep results (``sweep --compare``).

Compares the rows of a freshly-executed sweep against a previously saved
results file -- or, via :func:`compare_files`, two saved results files
against each other without re-running anything -- point by point.  Points are matched on their identity columns
(model, config, allocator, seed, scale, device, ranks, workload kind) rather than on
the ``point`` index, so reordered or extended grids still line up.  A *regression*
is something that makes the new run strictly worse:

* a point that fit before and OOMs now,
* a job peak (``allocated_gib``) that grew beyond the tolerance,
* reserved memory that grew beyond the tolerance,
* modelled throughput (``tflops_per_gpu``) that dropped beyond the tolerance.

The CLI exits non-zero when any regression is found, which is what makes
``sweep --compare`` usable as a CI gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.sweep.results import SweepResult, _fmt

#: Row keys identifying a sweep point across runs (everything that names the
#: measurement, nothing that is measured).  Current rows carry no ``timing``
#: column: every row is timeline-priced, so :func:`row_identity` reads a
#: missing ``timing`` as ``"timeline"``.  A results file from before 1.25.0
#: names the backend that priced each row; its timeline rows still match, and
#: its rows priced by the removed closed form never match a current row, so
#: they are reported as an unmatched baseline instead of diffed.
IDENTITY_COLUMNS = (
    "model", "config", "allocator", "seed", "scale", "device", "ranks", "timing",
    "workload_kind",
)

#: Metric columns worth diffing, with the direction in which a change is a
#: regression: +1 means "bigger is worse", -1 means "smaller is worse",
#: 0 means "report the delta but never flag it".
METRIC_DIRECTIONS: dict[str, int] = {
    "allocated_gib": +1,
    "allocated_mean_gib": 0,
    "reserved_gib": +1,
    "comm_peak_bytes": +1,
    "kv_peak_bytes": +1,
    "fragmentation_pct": 0,
    "memory_efficiency_pct": 0,
    "tflops_per_gpu": -1,
    "tokens_per_second": -1,
    "iteration_seconds": +1,
    "comm_seconds": +1,
    "decode_seconds": +1,
    "decode_steps": 0,
    "bubble_fraction": +1,
    "mfu": -1,
    "binding_rank": 0,
    "search_rank": +1,
}


def row_identity(row: dict) -> tuple:
    """Hashable cross-run identity of one result row."""
    return tuple(
        row.get(column, "timeline" if column == "timing" else None)
        for column in IDENTITY_COLUMNS
    )


@dataclass
class PointComparison:
    """Old-vs-new diff of one matched sweep point."""

    identity: tuple
    old_row: dict
    new_row: dict
    #: column -> (old value, new value) for every changed metric.
    deltas: dict[str, tuple] = field(default_factory=dict)
    #: Human-readable reasons this point regressed (empty = no regression).
    regressions: list[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        identity = dict(zip(IDENTITY_COLUMNS, self.identity))
        bits = [str(identity["model"]), str(identity["config"]), str(identity["allocator"])]
        ranks = identity["ranks"]
        if ranks not in (None, "0"):
            bits.append(f"ranks={ranks}")
        return " ".join(bits)


@dataclass
class CompareReport:
    """Every per-point diff plus the points only one side has."""

    comparisons: list[PointComparison] = field(default_factory=list)
    added: list[dict] = field(default_factory=list)
    removed: list[dict] = field(default_factory=list)
    tolerance_pct: float = 0.0

    @property
    def num_matched(self) -> int:
        return len(self.comparisons)

    @property
    def regressions(self) -> list[PointComparison]:
        return [comparison for comparison in self.comparisons if comparison.regressions]

    @property
    def changed(self) -> list[PointComparison]:
        return [comparison for comparison in self.comparisons if comparison.deltas]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    @property
    def baseline_unmatched(self) -> bool:
        """The baseline had rows but none lined up with the current run.

        This happens when the baseline predates a row-schema change (its
        identity columns differ) or targets a different spec; a gate that
        matched nothing has verified nothing and must not pass.
        """
        return self.num_matched == 0 and bool(self.removed)

    @property
    def exit_code(self) -> int:
        return 1 if self.has_regressions or self.baseline_unmatched else 0

    def to_text(self) -> str:
        lines = [
            f"== compare: {self.num_matched} matched points, "
            f"{len(self.changed)} changed, {len(self.regressions)} regressed "
            f"(tolerance {self.tolerance_pct:g}%) =="
        ]
        if self.baseline_unmatched:
            lines.append(
                "!! no baseline point matched the current run "
                "(stale baseline schema or different spec?) -- failing the gate"
            )
        for comparison in self.comparisons:
            if not comparison.deltas:
                continue
            marker = "REGRESSION" if comparison.regressions else "changed"
            lines.append(f"[{marker}] {comparison.label}")
            for column, (old, new) in sorted(comparison.deltas.items()):
                lines.append(f"    {column}: {_fmt(old)} -> {_fmt(new)}")
            for reason in comparison.regressions:
                lines.append(f"    !! {reason}")
        if self.added:
            lines.append(f"{len(self.added)} point(s) only in the new run:")
            for row in self.added:
                lines.append(f"    + {row_identity(row)}")
        if self.removed:
            lines.append(f"{len(self.removed)} point(s) only in the old run:")
            for row in self.removed:
                lines.append(f"    - {row_identity(row)}")
        if not self.changed and not self.added and not self.removed:
            lines.append("no differences")
        return "\n".join(lines)


def _values_differ(old, new, tolerance_pct: float) -> bool:
    if isinstance(old, (int, float)) and isinstance(new, (int, float)) \
            and not isinstance(old, bool) and not isinstance(new, bool):
        if math.isnan(old) and math.isnan(new):
            return False
        if old == new:
            return False
        scale = max(abs(old), abs(new))
        if not math.isfinite(scale):
            return True
        return abs(new - old) > scale * tolerance_pct / 100.0 + 1e-12
    return old != new


def _is_regression(column: str, old, new, tolerance_pct: float) -> bool:
    direction = METRIC_DIRECTIONS.get(column, 0)
    if direction == 0:
        return False
    if not isinstance(old, (int, float)) or not isinstance(new, (int, float)) \
            or isinstance(old, bool) or isinstance(new, bool):
        # Mirror _values_differ: booleans are not numerics here -- a
        # boolean-valued metric column must not be diffed as 0/1 arithmetic.
        return False
    return direction * (new - old) > abs(old) * tolerance_pct / 100.0 + 1e-12


def compare_results(
    old: SweepResult | dict,
    new: SweepResult | dict,
    *,
    tolerance_pct: float = 0.0,
) -> CompareReport:
    """Diff two sweep results; see the module docstring for what regresses.

    ``tolerance_pct`` is the relative change (in percent) a metric may move
    before it is reported/flagged; the default of 0 flags any worsening,
    which is the right setting for the deterministic simulator.
    """
    if isinstance(old, dict):
        old = SweepResult.from_dict(old)
    if isinstance(new, dict):
        new = SweepResult.from_dict(new)
    old_rows = {row_identity(row): row for row in old.rows}
    new_rows = {row_identity(row): row for row in new.rows}

    report = CompareReport(tolerance_pct=tolerance_pct)
    report.added = [row for key, row in new_rows.items() if key not in old_rows]
    report.removed = [row for key, row in old_rows.items() if key not in new_rows]

    for key, old_row in old_rows.items():
        new_row = new_rows.get(key)
        if new_row is None:
            continue
        comparison = PointComparison(identity=key, old_row=old_row, new_row=new_row)
        old_status, new_status = old_row.get("status"), new_row.get("status")
        if old_status != new_status:
            comparison.deltas["status"] = (old_status, new_status)
            if old_status == "ok" and new_status != "ok":
                comparison.regressions.append(
                    f"status regressed from {old_status} to {new_status}"
                )
        for column in METRIC_DIRECTIONS:
            old_value, new_value = old_row.get(column), new_row.get(column)
            if old_value is None and new_value is None:
                continue
            # Checked independently: the two scale the tolerance differently
            # (max(|old|,|new|) vs |old|), and a regression just past the
            # changed-threshold must never slip through unrecorded.
            changed = _values_differ(old_value, new_value, tolerance_pct)
            regressed = _is_regression(column, old_value, new_value, tolerance_pct)
            if changed or regressed:
                comparison.deltas[column] = (old_value, new_value)
                if regressed:
                    comparison.regressions.append(
                        f"{column} regressed: {_fmt(old_value)} -> {_fmt(new_value)}"
                    )
        report.comparisons.append(comparison)
    return report


def compare_files(old_path, new_path, *, tolerance_pct: float = 0.0) -> CompareReport:
    """Diff two saved results files without executing any sweep.

    The dual-file form of ``sweep --compare``: both sides are results JSON
    documents previously written by ``--output``, so post-hoc comparisons
    (two CI artifacts, two branches' runs) need no recomputation at all.
    """
    return compare_results(
        SweepResult.load(old_path), SweepResult.load(new_path), tolerance_pct=tolerance_pct
    )
