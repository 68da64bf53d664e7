"""Process-parallel sweep execution.

:func:`run_sweep` executes every point of a :class:`~repro.sweep.spec.SweepSpec`
as a whole-job measurement -- the :class:`~repro.sweep.spec.SweepPoint` is the
job description :func:`repro.simulator.runner.run_jobs` reads, with no copy
into a second type -- and collects one flat result row per point, holding
the columns :data:`~repro.sweep.results.ROW_COLUMNS` declares.  A point
may cover several pipeline ranks (``ranks`` in the spec); its row then
aggregates the per-rank replays -- job success, max/mean per-rank peak, the
binding rank -- and every row carries the timeline simulator's throughput
columns (``tflops_per_gpu``, ``tokens_per_second``, ``iteration_seconds``,
...).  Execution is:

* **cached** -- with a cache directory, finished rows are served straight from
  the persistent result cache (checked in the parent, so a fully-warm sweep
  never even spawns workers), and cache-missing points still reuse on-disk
  per-rank traces and synthesized plans;
* **rank-granular** -- the unit of work is one rank's trace
  (:func:`repro.simulator.runner.run_jobs`): the replays every cache-missing
  point needs are grouped under the trace they read, each trace is fetched
  once (disk cache, else the generator) and replayed through every allocator
  that needs it, then dropped, so one trace is alive per process at a time;
  the parent prices, builds and stores each point's row;
* **parallel** -- those work items fan out over ``jobs`` worker processes
  through :meth:`repro.simulator.execution.ExecutionContext.map` (a trace's
  replays are split over several items when there are fewer traces than
  workers); ``jobs=1`` is the serial in-process fallback producing identical
  results.  A row is stored once every trace its point reads has returned.
"""

from __future__ import annotations

import time

from repro.obs.tracer import counter as _obs_counter
from repro.obs.tracer import span as _obs_span
from repro.simulator.execution import ExecutionContext
from repro.sweep.cache import SweepCache
from repro.sweep.results import ROW_COLUMNS, SweepResult
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.workloads.fingerprint import config_fingerprint


class SweepPointError(RuntimeError):
    """One sweep point failed; names the point instead of a bare traceback.

    Raised in place of whatever the job runner threw, so a failure surfacing
    from a worker process identifies *which* point died (row label + trace
    fingerprint) -- the original exception stays attached as ``__cause__`` on
    the serial path and is summarized in the message either way.
    """

    def __init__(self, label: str, fingerprint: str, cause: str):
        super().__init__(
            f"sweep point {label!r} (trace {fingerprint[:12]}) failed: {cause}"
        )
        self.label = label
        self.fingerprint = fingerprint
        self.cause = cause

    def __reduce__(self):
        # Exceptions cross the ProcessPoolExecutor boundary by pickling;
        # the default reduce replays ``cls(*args)`` with the formatted
        # message only, which does not match this constructor.
        return (SweepPointError, (self.label, self.fingerprint, self.cause))


def _point_row(point: SweepPoint, job, elapsed: float) -> dict:
    """Flatten one JobRun into the row :data:`~repro.sweep.results.ROW_COLUMNS` declares."""
    stamped = {"elapsed_seconds": round(elapsed, 4)}
    row = {}
    for column in ROW_COLUMNS:
        value = column.value(point, job) if column.value else stamped.get(column.name)
        if value is not None:
            row[column.name] = value
    return row


def _as_cached_row(row: dict, point: SweepPoint, elapsed: float) -> dict:
    """Adapt a stored result row to the current sweep.

    The cached row may come from a sweep whose grid ordered this point
    differently, so its ``point`` index (and compute time) must not leak
    through verbatim.  The ``config`` label is rewritten from the current
    point too: the *measurement* is shared between a spec-level budget map
    and the same map swept as a grid axis (their cache payloads are equal on
    purpose), but their row labels differ (``budget_label`` is display
    identity, not measurement identity).
    """
    row = dict(row)
    row["point"] = point.index
    row["config"] = point.row_label
    row["cached"] = True
    row["elapsed_seconds"] = round(elapsed, 4)
    return row


def point_result_key(cache: SweepCache, point: SweepPoint) -> str:
    """Result-cache key of one sweep point (trace fingerprint + point identity).

    The point's rank tuple is part of its cache payload, so single-rank and
    job-level rows for the same configuration never alias each other.
    """
    fingerprint = config_fingerprint(point.config, seed=point.seed, scale=point.scale)
    return cache.result_key(fingerprint, point.cache_payload())


def _point_error(point: SweepPoint, error: Exception) -> SweepPointError:
    """The :class:`SweepPointError` naming ``point``: ``run_jobs``'s ``on_error``."""
    fingerprint = config_fingerprint(point.config, seed=point.seed, scale=point.scale)
    return SweepPointError(point.row_label, fingerprint, f"{type(error).__name__}: {error}")


def execute_points(
    points: list[SweepPoint],
    ctx: ExecutionContext | None = None,
    *,
    reuse_results: bool = True,
    on_row=None,
) -> list[dict]:
    """Run sweep points (distinct indices) and return their rows, in order.

    ``ctx`` supplies the cache the rows, per-rank traces and synthesized
    STAlloc plans persist in (default: a fresh serial context with no disk
    cache, so nothing is cached).  With ``reuse_results`` a point whose row
    is already cached is served from it.  The rest run together through
    :func:`repro.simulator.runner.run_jobs`, so points that differ only in
    allocator, knobs, budget or fabric share one fetch of each rank's
    trace; a point's row is built and stored as soon as its last rank
    returns.  ``on_row()`` is called once per finished row, cached or
    computed.
    """
    ctx = ctx if ctx is not None else ExecutionContext()
    cache = ctx.cache
    rows: dict[int, dict] = {}
    pending: list[SweepPoint] = []
    for point in points:
        if cache is not None and reuse_results:
            started = time.perf_counter()
            row = cache.load_result(point_result_key(cache, point))
            if row is not None:
                rows[point.index] = _as_cached_row(row, point, time.perf_counter() - started)
                _obs_counter("sweep.rows_done")
                if on_row is not None:
                    on_row()
                continue
        pending.append(point)
    if pending:
        # The first point that misses pays for the execution layer (the
        # generator, the planner, the allocators); a warm run never gets here.
        from repro.simulator.runner import run_jobs

        jobs = [(point, point) for point in pending]  # each point tags itself
        for point, job, seconds in run_jobs(jobs, ctx=ctx, on_error=_point_error):
            with _obs_span("sweep.point", point=point.index, label=point.row_label):
                row = _point_row(point, job, seconds)
                if cache is not None:
                    cache.store_result(point_result_key(cache, point), row)
                _obs_counter("sweep.rows_done")
            rows[point.index] = row
            if on_row is not None:
                on_row()
    return [rows[point.index] for point in points]


def _hit_rate_label(stats: dict) -> str:
    """Render an aggregated cache-stats dict as e.g. ``"83% hit"``."""
    hits = stats.get("trace_hits", 0) + stats.get("plan_hits", 0) + stats.get("result_hits", 0)
    misses = (
        stats.get("trace_misses", 0)
        + stats.get("plan_misses", 0)
        + stats.get("result_misses", 0)
    )
    lookups = hits + misses
    return f"{100 * hits / lookups:.0f}% hit" if lookups else "no lookups"


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
    reuse_results: bool = True,
    cache_max_bytes: int | None = None,
    progress=None,
) -> SweepResult:
    """Execute every point of ``spec`` and return the collected result rows.

    ``cache_max_bytes`` caps the persistent cache *during* the sweep: every
    store that pushes the cache past the cap LRU-evicts down to it inline
    (see :meth:`SweepCache.prune`), so a long sweep cannot grow the cache
    without bound between explicit ``cache prune`` invocations.

    ``progress`` optionally supplies a
    :class:`~repro.obs.progress.ProgressReporter`; the sweep sets its total
    to the expanded point count and advances it once per finished row.
    """
    ctx = ExecutionContext(cache_dir, cache_max_bytes, jobs)
    started = time.perf_counter()
    with _obs_span("sweep.run", spec=spec.name, jobs=jobs) as obs_run:
        points = spec.expand()
        obs_run.set(points=len(points))
        if progress is not None:
            progress.total = len(points)

        cache = ctx.cache

        def _tick() -> None:
            if progress is not None:
                info = (
                    {"cache": _hit_rate_label(cache.stats.as_dict())}
                    if cache is not None
                    else {}
                )
                progress.update(**info)

        # Warm rows are served in the parent, so a fully-cached sweep involves
        # no worker processes at all (this makes reruns O(seconds)).
        rows = execute_points(points, ctx, reuse_results=reuse_results, on_row=_tick)

        if cache is not None:
            # Workers enforce the cap after their own stores, but a store in
            # one worker can land after another worker's final eviction pass;
            # one parent-side sweep after the pool drains guarantees the sweep
            # ends at or below the cap.
            cache.enforce_cap()

        cache_stats = cache.stats.as_dict() if cache is not None else {}
        cache_stats["cached_rows"] = sum(1 for row in rows if row.get("cached"))
        elapsed = time.perf_counter() - started
        if progress is not None:
            progress.finish()
        return SweepResult(
            spec_name=spec.name,
            rows=sorted(rows, key=lambda row: row["point"]),
            elapsed_seconds=elapsed,
            jobs=jobs,
            cache_dir=ctx.cache_dir,
            cache_stats=cache_stats,
        )
