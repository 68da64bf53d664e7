"""Branch-and-bound planner over the enumerated candidate space.

:func:`search_points` prices candidates in three stages:

1. **Memory pruning** -- every candidate *configuration* gets the admissible
   :func:`~repro.search.bounds.memory_lower_bound` evaluated per
   capacity-refined rank class (the same class structure ``run_jobs`` would
   replay).  A class whose bound already exceeds its device budget proves the
   whole configuration OOMs under *every* allocator, so all of its points are
   killed before any trace is generated.

2. **Branch and bound** -- survivors are priced through the ordinary sweep
   engine (:func:`~repro.sweep.engine.execute_points`, one candidate group at
   a time, so each rank trace of a group is fetched once and the
   content-addressed cache makes revisits free), in descending order of
   :func:`~repro.search.bounds.throughput_upper_bound`.  Once a candidate's
   upper bound falls *strictly* below the best measured ``tokens_per_second``
   the remaining candidates cannot win and are pruned unevaluated.  The
   strictness preserves the ranking tie-break: a candidate whose bound equals
   the incumbent could still tie on throughput and win on memory.

3. **Ranking** -- evaluated rows are ordered best-first (highest
   ``tokens_per_second``, then lowest job peak, then labels) and stamped with
   a 1-based ``search_rank`` column; rows that OOM'd trail unranked-but-kept
   so the compare gate sees them regress if a fit is ever lost.

``exhaustive=True`` disables both prunes and evaluates the entire grid in
enumeration order -- the oracle the property tests and the CI gate compare
the planner against.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.gpu.device import GIB
from repro.obs.tracer import counter as _obs_counter
from repro.obs.tracer import span as _obs_span
from repro.search.bounds import memory_lower_bound, throughput_upper_bound
from repro.search.space import SearchSpec
from repro.simulator.execution import ExecutionContext
from repro.simulator.ranks import default_capacity_gib, job_rank_classes
from repro.sweep.engine import execute_points
from repro.sweep.results import SweepResult
from repro.sweep.spec import SweepPoint
from repro.version import SEARCH_VERSION
from repro.workloads.fingerprint import config_fingerprint
from repro.workloads.parallelism import normalize_rank, rank_label


@dataclass
class SearchResult:
    """Ranked candidates plus the prune accounting of one planner run."""

    name: str
    #: Result rows of every *evaluated* candidate, ranked best-first; the same
    #: row schema sweeps produce, plus a 1-based ``search_rank`` column.
    rows: list[dict] = field(default_factory=list)
    candidates_total: int = 0
    pruned_by_memory: int = 0
    pruned_by_bound: int = 0
    evaluated: int = 0
    #: One record per pruned point: config/allocator labels, the prune kind,
    #: and for memory prunes the violated (rank, bound, budget) evidence.
    pruned: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    cache_dir: str | None = None
    cache_stats: dict = field(default_factory=dict)
    #: True when pruning was disabled and the full grid was evaluated.
    exhaustive: bool = False

    @property
    def best(self) -> dict | None:
        """The winning row: the top-ranked candidate that fit, if any fit."""
        for row in self.rows:
            if row.get("status") == "ok":
                return row
        return None

    def as_dict(self) -> dict:
        # "spec"/"rows" mirror SweepResult.as_dict so compare.py (and
        # SweepResult.load) consume a search result file unchanged.
        return {
            "spec": self.name,
            "search_version": SEARCH_VERSION,
            "candidates_total": self.candidates_total,
            "pruned_by_memory": self.pruned_by_memory,
            "pruned_by_bound": self.pruned_by_bound,
            "evaluated": self.evaluated,
            "exhaustive": self.exhaustive,
            "elapsed_seconds": self.elapsed_seconds,
            "cache_dir": self.cache_dir,
            "cache_stats": dict(self.cache_stats),
            "pruned": list(self.pruned),
            "rows": list(self.rows),
        }

    def as_sweep_result(self) -> SweepResult:
        """The rows as an ordinary :class:`SweepResult` (table/CSV/compare)."""
        return SweepResult(
            spec_name=self.name,
            rows=list(self.rows),
            elapsed_seconds=self.elapsed_seconds,
            jobs=1,
            cache_dir=self.cache_dir,
            cache_stats=dict(self.cache_stats),
        )

    def summary(self) -> str:
        bits = [
            f"{self.candidates_total} candidates",
            f"{self.pruned_by_memory} pruned by memory bound",
            f"{self.pruned_by_bound} pruned by throughput bound",
            f"{self.evaluated} evaluated",
        ]
        if self.exhaustive:
            bits.append("(exhaustive)")
        return ", ".join(bits)

    def to_text(self, max_rows: int = 40) -> str:
        lines = [f"== search {self.name}: {self.summary()} =="]
        lines.append(self.as_sweep_result().to_text(max_rows=max_rows))
        best = self.best
        if best is not None:
            lines.append(
                f"best: {best['config']} / {best['allocator']} "
                f"({best.get('tokens_per_second', 0.0):.0f} tokens/s, "
                f"{best.get('allocated_gib', 0.0):.3f} GiB peak)"
            )
        else:
            lines.append("best: none -- no evaluated candidate fit the cluster")
        return "\n".join(lines)

    def write(self, path: str | Path) -> None:
        """Write ``.json`` (the full search document) or ``.csv`` (rows only).

        Keys keep their order, so each JSON row lists its columns in
        :data:`~repro.sweep.results.ROW_COLUMNS` order, like a sweep's rows.
        """
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix == ".json":
            path.write_text(json.dumps(self.as_dict(), indent=2) + "\n", encoding="utf-8")
        elif suffix == ".csv":
            self.as_sweep_result().write(path)
        else:
            raise ValueError(f"unsupported output format {path.suffix!r} (use .json or .csv)")


def _prune_record(point: SweepPoint, reason: str, **detail) -> dict:
    record = {
        "config": point.row_label,
        "allocator": point.allocator_label,
        "reason": reason,
    }
    record.update(detail)
    return record


def _memory_verdict(point: SweepPoint) -> dict | None:
    """Evidence that ``point``'s configuration cannot fit, or None if it might.

    Takes exactly the capacity-refined rank classes ``run_jobs`` would replay
    (:func:`~repro.simulator.ranks.job_rank_classes`) and compares each
    class's admissible memory lower bound against the budget its replay would
    run under; any violation proves an OOM for every allocator (the bound
    undercounts what every allocator must hold).
    """
    config = point.config
    default_capacity = default_capacity_gib(point.device_name, point.device_capacity_gib)
    for members, capacity in job_rank_classes(
        config, point.ranks, dict(point.device_memory_by_rank), point.device_capacity_gib
    ):
        budget_gib = capacity if capacity is not None else default_capacity
        representative = members[0]
        pp, ep = normalize_rank(representative)
        bound = memory_lower_bound(config, rank=pp, ep_rank=ep, scale=point.scale)
        if bound > budget_gib * GIB:
            return {
                "rank": rank_label(representative)
                if not isinstance(representative, int)
                else representative,
                "memory_bound_gib": round(bound / GIB, 3),
                "budget_gib": budget_gib,
            }
    return None


def _rank_rows(rows: list[dict]) -> list[dict]:
    """Order evaluated rows best-first and stamp ``search_rank``.

    Fitting rows sort on (throughput desc, job peak asc, labels); OOM rows
    trail in label order.  Ranks are assigned over the whole list -- an OOM
    row still has a defined position, so losing a fit shows up as a rank
    regression in the compare gate rather than a vanished column.
    """
    def sort_key(row: dict):
        fits = row.get("status") == "ok"
        if fits:
            return (
                0,
                -row.get("tokens_per_second", 0.0),
                row.get("allocated_gib", float("inf")),
                str(row.get("config")),
                str(row.get("allocator")),
            )
        return (1, 0.0, 0.0, str(row.get("config")), str(row.get("allocator")))

    ranked = sorted(rows, key=sort_key)
    for position, row in enumerate(ranked, start=1):
        row["search_rank"] = position
    return ranked


def search_points(
    points: list[SweepPoint],
    *,
    name: str = "search",
    cache_dir: str | None = None,
    reuse_results: bool = True,
    cache_max_bytes: int | None = None,
    exhaustive: bool = False,
    progress=None,
) -> SearchResult:
    """Run the planner over an explicit candidate list (see module docstring).

    ``progress`` optionally supplies a
    :class:`~repro.obs.progress.ProgressReporter`; its total is set to the
    candidate count and advanced as candidates are pruned or evaluated.
    """
    started = time.perf_counter()
    ctx = ExecutionContext(cache_dir, cache_max_bytes)
    result = SearchResult(
        name=name,
        candidates_total=len(points),
        cache_dir=ctx.cache_dir,
        exhaustive=exhaustive,
    )
    if progress is not None:
        progress.total = len(points)

    def _progress_tick(advance: int) -> None:
        if progress is not None:
            progress.update(
                advance,
                pruned=f"mem {result.pruned_by_memory} / bound {result.pruned_by_bound}",
            )

    with _obs_span(
        "search.run", spec=name, candidates=len(points), exhaustive=exhaustive
    ) as obs_run:
        # Group points by priced configuration: every allocator/knob cell of
        # one (config, device, budgets, ranks, fabric) shares a memory
        # verdict and a throughput bound.
        groups: dict[tuple, list[SweepPoint]] = {}
        for point in points:
            key = (
                config_fingerprint(point.config, seed=point.seed, scale=point.scale),
                point.device_name,
                point.device_capacity_gib,
                point.device_memory_by_rank,
                point.ranks,
                point.fabric,
            )
            groups.setdefault(key, []).append(point)

        survivors: list[tuple[float, int, list[SweepPoint]]] = []
        for group in groups.values():
            head = group[0]
            if not exhaustive:
                verdict = _memory_verdict(head)
                if verdict is not None:
                    result.pruned_by_memory += len(group)
                    _obs_counter("search.pruned_memory", len(group))
                    result.pruned.extend(
                        _prune_record(point, "memory_bound", **verdict) for point in group
                    )
                    _progress_tick(len(group))
                    continue
            # Bound against the fabric the candidate is actually timed on: the
            # tiered pricing must stay admissible (the floor charges the
            # fastest tier).
            bound = throughput_upper_bound(head.config, head.gpu, scale=head.scale)
            survivors.append((bound, head.index, group))

        if exhaustive:
            # Oracle mode: evaluate in enumeration order, no bound pruning.
            survivors.sort(key=lambda item: item[1])
        else:
            # Best bound first, then enumeration order for determinism.
            survivors.sort(key=lambda item: (-item[0], item[1]))

        rows: list[dict] = []
        best_tps = float("-inf")
        for position, (bound, _, group) in enumerate(survivors):
            # Prune only when the bound is *meaningfully* below the incumbent:
            # a candidate whose bound ties the best measured throughput (to
            # within float noise -- the timeline and the closed-form floor
            # compute the same product in different association orders) can
            # still tie on tokens/s and win the lower-memory tie-break, so it
            # must be priced.
            if not exhaustive and bound < best_tps * (1.0 - 1e-9):
                # No candidate from here on can beat the incumbent: bounds are
                # sorted descending, so every remaining group is dominated too.
                dominated_total = 0
                for _, _, dominated in survivors[position:]:
                    result.pruned_by_bound += len(dominated)
                    dominated_total += len(dominated)
                    result.pruned.extend(
                        _prune_record(
                            point,
                            "throughput_bound",
                            throughput_bound=bound,
                            incumbent_tokens_per_second=best_tps,
                        )
                        for point in dominated
                    )
                _obs_counter("search.pruned_bound", dominated_total)
                _progress_tick(dominated_total)
                break
            # The group's candidates run together: each rank trace they read
            # is fetched once for all of them.
            for row in execute_points(group, ctx, reuse_results=reuse_results):
                rows.append(row)
                result.evaluated += 1
                _obs_counter("search.evaluated")
                _progress_tick(1)
                if row.get("status") == "ok":
                    best_tps = max(best_tps, row.get("tokens_per_second", 0.0))

        result.rows = _rank_rows(rows)
        if ctx.cache is not None:
            ctx.cache.enforce_cap()
            result.cache_stats = ctx.cache.stats.as_dict()
            result.cache_stats["cached_rows"] = sum(
                1 for row in rows if row.get("cached")
            )
        obs_run.set(evaluated=result.evaluated)
    if progress is not None:
        progress.finish()
    result.elapsed_seconds = time.perf_counter() - started
    return result


def run_search(
    spec: SearchSpec,
    *,
    cache_dir: str | None = None,
    reuse_results: bool = True,
    cache_max_bytes: int | None = None,
    exhaustive: bool = False,
    progress=None,
) -> SearchResult:
    """Enumerate ``spec``'s candidate grid and run the planner over it."""
    return search_points(
        spec.enumerate_candidates(),
        name=spec.name,
        cache_dir=cache_dir,
        reuse_results=reuse_results,
        cache_max_bytes=cache_max_bytes,
        exhaustive=exhaustive,
        progress=progress,
    )
