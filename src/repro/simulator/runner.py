"""High-level experiment runner: generate a trace, run allocators, report.

The experiments in :mod:`repro.experiments` all follow the same recipe:

1. build a :class:`TrainingConfig`,
2. generate its allocation trace (stored columnar, see
   :mod:`repro.core.columns`; one trace object is shared by reference by
   every replay of it, which is safe because traces are immutable once
   generated),
3. replay the trace through one or more allocators on a fresh device
   (batch-replayable allocators apply the whole trace in one batched
   step, see :meth:`repro.allocators.base.Allocator.batch_replay`),
4. read each replay's memory efficiency off its
   :class:`~repro.simulator.replay.ReplayResult`, then price the job's
   throughput.

This module implements that recipe once, including STAlloc's extra offline
step (profile + plan synthesis before the replay).

The pure per-run path is :func:`run_workload`: one rank's replay, returned
as its :class:`~repro.simulator.replay.ReplayResult`.  :func:`run_jobs` is
the one orchestrator on top of it; one job is a one-element list.  Every
figure, table, sweep and search replays through :func:`run_jobs`, and each
describes a job the same way: a :class:`~repro.sweep.spec.SweepPoint` built by
:meth:`~repro.sweep.spec.SweepPoint.build`, whose ranks are already resolved
and whose knobs, budgets and fabric are sorted pairs.  Its unit
of work is one rank's trace (:func:`replay_rank`): it is fetched once,
replayed through every allocator of every job that reads it, and dropped, so
one trace is alive at a time.  With fewer traces than worker processes a
trace's replays are split over several workers (:func:`_work_items`).  Each
job is priced once, after its last rank's replay.  How they execute -- the
on-disk trace/plan cache, the number of worker processes -- is decided by the
:class:`~repro.simulator.execution.ExecutionContext` they are handed
(``ctx``); without one they run serially with no disk cache.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.allocators.base import Allocator
from repro.allocators.registry import (
    STALLOC,
    STALLOC_NO_REUSE,
    create_allocator,
)
from repro.core.config import STAllocConfig
from repro.gpu.device import Device, GIB
from repro.gpu.errors import OutOfMemoryError
from repro.obs.tracer import span as _obs_span
from repro.simulator.execution import ExecutionContext
from repro.simulator.ranks import default_capacity_gib, job_rank_classes, validate_capacity_gib

# Read from here by benchmarks/e2e/stages.py (its home is simulator.ranks).
from repro.simulator.ranks import resolve_job_ranks  # noqa: F401
from repro.simulator.replay import ReplayResult, replay_trace
from repro.sweep.spec import SweepPoint
from repro.timeline.simulator import TimelineResult, simulate_timeline
from repro.workloads.fingerprint import config_fingerprint
from repro.workloads.parallelism import normalize_rank
from repro.workloads.trace import Trace
from repro.workloads.training import TrainingConfig


def _stalloc_config(name: str, overrides: dict | None) -> STAllocConfig:
    """STAllocConfig for one of the runner-level stalloc variants."""
    params = dict(overrides or {})
    if name == STALLOC_NO_REUSE:
        params.setdefault("enable_dynamic_reuse", False)
    return STAllocConfig(**params)


def _build_allocator(
    name: str,
    device: Device,
    trace: Trace,
    stalloc_overrides: dict | None,
    ctx: ExecutionContext,
) -> tuple[Allocator, dict]:
    """Instantiate an allocator by name, handling STAlloc's offline pipeline.

    For the STAlloc variants the offline pipeline (profile + plan synthesis)
    runs here -- unless the context's plan cache already holds a plan for
    this exact (trace, pipeline-config) pair, in which case the plan is
    loaded.
    """
    if name in (STALLOC, STALLOC_NO_REUSE):
        with _obs_span("plan.synthesize", allocator=name):
            stalloc = ctx.stalloc(trace, _stalloc_config(name, stalloc_overrides))
            return stalloc.build_runtime_allocator(device), stalloc.planning_report()
    return create_allocator(name, device), {}


def run_workload(
    config: TrainingConfig,
    allocator_name: str,
    *,
    device_name: str = "A800-80GB",
    device_capacity_gib: float | None = None,
    seed: int = 0,
    scale: float = 1.0,
    rank: int = 0,
    ep_rank: int = 0,
    trace: Trace | None = None,
    stalloc_overrides: dict | None = None,
    ctx: ExecutionContext | None = None,
) -> ReplayResult:
    """Run one configuration through one allocator: one rank's replay.

    This is the pure per-run worker: it has no side effects beyond ``ctx``'s
    caches and is what the sweep engine executes in worker processes.  ``rank`` and
    ``ep_rank`` select the (pipeline, expert-parallel) rank coordinate being
    simulated (rank (0, 0) by default, matching the single-rank behaviour of
    earlier releases; ``rank`` also accepts a ``(pp, ep)`` pair directly).
    It measures memory only, returning the replay's :class:`ReplayResult`
    (with the STAlloc variants' planning report): :func:`run_jobs` prices a
    whole job once from its ranks' replays.  ``stalloc_overrides`` optionally
    overrides STAllocConfig knobs for the STAlloc variants (ablation sweeps);
    other allocators ignore it.  ``trace`` is the rank's trace when the
    caller already holds it; otherwise ``ctx`` fetches it, from its on-disk
    trace/plan cache when it has one (default: a fresh serial context with no
    disk cache).
    """
    ctx = ctx if ctx is not None else ExecutionContext()
    device_capacity_gib = validate_capacity_gib(device_capacity_gib)
    if not isinstance(rank, int):
        rank, ep_rank = normalize_rank(rank)
    with _obs_span("workload.run", allocator=allocator_name, rank=rank, ep=ep_rank):
        if trace is None:
            trace = ctx.trace(config, seed=seed, scale=scale, rank=rank, ep_rank=ep_rank)
        capacity_gib = default_capacity_gib(device_name, device_capacity_gib)
        device = Device(
            name=device_name, capacity=int(capacity_gib * GIB), reserved_overhead=0
        )
        try:
            allocator, planning_report = _build_allocator(
                allocator_name, device, trace, stalloc_overrides, ctx
            )
        except OutOfMemoryError as oom:
            # STAlloc's static-pool reservation can itself exceed a small
            # device budget.  A real job dies at startup the same way it dies
            # mid-step, so this is an OOM *result* (failed before any event
            # replayed, ``oom_at_event=-1``), not an orchestration error to
            # propagate.
            return ReplayResult(
                allocator_name=allocator_name,
                peak_allocated_bytes=0,
                peak_reserved_bytes=0,
                oom_at_event=-1,
                oom_request_bytes=oom.requested,
                comm_peak_bytes=trace.comm_peak_bytes(),
                kv_peak_bytes=trace.kv_peak_bytes(),
            )
        result = replay_trace(trace, allocator)
        result.planning_report = planning_report
        return result


# ---------------------------------------------------------------------- #
# Job-level (multi-rank) orchestration
# ---------------------------------------------------------------------- #
def _budget_utilization(peak_gib: float, capacity: float | None) -> float:
    """Fraction of a rank's device budget its peak consumes.

    A class without a budget (``capacity is None``) never binds on
    utilization; a *zero* budget is maximally binding (infinite utilization),
    not invisible -- the distinction the old truthiness checks collapsed.
    """
    if capacity is None:
        return 0.0
    if capacity == 0:
        return float("inf")
    return peak_gib / capacity


@dataclass
class JobRun:
    """One (configuration, allocator) measurement across a job's ranks.

    ``rank_classes`` partitions the simulated ranks into memory-equivalence
    classes; ``class_runs`` holds one :class:`ReplayResult` per class (its
    representative rank's replay), in the same order.  Aggregates weight each
    class by its member count, so deduplicated execution reports exactly what
    an exhaustive per-rank run would.  Class members are pipeline-rank ints
    for symmetric jobs and ``(pp, ep)`` coordinates when expert-parallel
    asymmetry makes EP ranks distinct.  ``class_capacities`` holds each
    class's device budget in GiB (``None`` when no budget applies), so with
    heterogeneous per-rank devices the *binding* rank is the one closest to
    exhausting its own budget -- which can differ from the peak-memory rank.
    """

    config: TrainingConfig
    allocator_name: str
    device_name: str
    rank_classes: list[tuple]
    class_runs: list[ReplayResult]
    #: The job's priced iteration: its throughput (``tflops_per_gpu``,
    #: ``tokens_per_second``, ...) and the per-rank event streams behind it.
    timeline: TimelineResult
    class_capacities: list[float | None] = field(default_factory=list)

    @property
    def num_ranks(self) -> int:
        return sum(len(cls) for cls in self.rank_classes)

    @property
    def success(self) -> bool:
        """A job fits only if every one of its ranks fits."""
        return all(run.success for run in self.class_runs)

    def runs_by_rank(self) -> dict:
        """Expand the per-class runs to every requested rank."""
        expanded: dict = {}
        for cls, run in zip(self.rank_classes, self.class_runs):
            for rank in cls:
                expanded[rank] = run
        return dict(sorted(expanded.items()))

    @property
    def heterogeneous_budgets(self) -> bool:
        capacities = {c for c in self.class_capacities if c is not None}
        return len(capacities) > 1

    @property
    def binding_class_index(self) -> int:
        """Index of the class whose representative binds the job.

        With a uniform device budget this is simply the peak-memory class;
        with heterogeneous per-rank budgets it is the class with the highest
        *utilization* of its own budget (peak / capacity) -- a 30 GiB peak on
        a 40 GiB device binds harder than a 50 GiB peak on a 96 GiB one.
        """
        peaks = [run.peak_allocated_gib for run in self.class_runs]
        if self.heterogeneous_budgets:
            utilizations = [
                _budget_utilization(peak, capacity)
                for peak, capacity in zip(peaks, self.class_capacities)
            ]
            return max(range(len(peaks)), key=utilizations.__getitem__)
        return max(range(len(peaks)), key=peaks.__getitem__)

    @property
    def binding_rank(self):
        """The rank whose memory pressure decides whether the job fits."""
        return self.rank_classes[self.binding_class_index][0]

    @property
    def binding_run(self) -> ReplayResult:
        return self.class_runs[self.binding_class_index]

    @property
    def binding_utilization(self) -> float | None:
        """Peak / device budget of the binding rank (None without a budget)."""
        index = self.binding_class_index
        capacities = self.class_capacities
        capacity = capacities[index] if index < len(capacities) else None
        if capacity is None:
            return None
        return _budget_utilization(self.class_runs[index].peak_allocated_gib, capacity)

    @property
    def peak_allocated_gib(self) -> float:
        """Job peak: the max over per-rank peaks (the binding rank's peak)."""
        return max(run.peak_allocated_gib for run in self.class_runs)

    @property
    def mean_peak_allocated_gib(self) -> float:
        """Per-rank peak averaged over every requested rank (class-weighted)."""
        total = sum(
            len(cls) * run.peak_allocated_gib
            for cls, run in zip(self.rank_classes, self.class_runs)
        )
        return total / self.num_ranks

    @property
    def peak_reserved_gib(self) -> float:
        return max(run.peak_reserved_gib for run in self.class_runs)

    @property
    def comm_peak_bytes(self) -> int:
        """Job communication peak: max per-rank live COMM_BUFFER bytes.

        With a skewed MoE router this is dominated by the EP rank whose
        experts attract the most tokens (its all-to-all recv staging buffer
        scales with the routed load), which is exactly the transient the
        static planner must provision for.
        """
        return max(run.comm_peak_bytes for run in self.class_runs)

    @property
    def kv_peak_bytes(self) -> int:
        """Job KV-cache peak: max per-rank live KV_CACHE bytes.

        For a generation workload every micro-batch's per-layer caches are
        still live when the last decode sweep runs, so this is the dynamic
        allocation floor static planning must reserve; 0 for training and
        inference jobs.
        """
        return max(run.kv_peak_bytes for run in self.class_runs)

    @property
    def oom_ranks(self) -> list:
        """Every requested rank whose replay ran out of memory."""
        return sorted(
            rank
            for cls, run in zip(self.rank_classes, self.class_runs)
            if not run.success
            for rank in cls
        )


@contextmanager
def _attributed(tag, on_error):
    """Raise ``on_error(tag, error)`` in place of an error of the block.

    Without ``on_error`` the error passes through unchanged.
    """
    try:
        yield
    except Exception as error:
        if on_error is None:
            raise
        raise on_error(tag, error) from error


def replay_rank(ctx: ExecutionContext, item: tuple) -> list[tuple[ReplayResult, float]]:
    """:meth:`ExecutionContext.map` unit of work: one rank's trace, every replay of it.

    ``item`` is ``((config, seed, scale, rank, ep_rank), trace, requests,
    on_error)``, each request a ``(tag, config, allocator_name, run_workload
    kwargs)``.  Unless the item carries the trace (see :func:`_work_items`),
    it is fetched once (the disk cache, else the generator); it is replayed
    for every request and dropped when the item returns, so a process holds
    one trace at a time.  Returns each request's ``(ReplayResult, seconds)``;
    the first request's seconds include the fetch, if any.  A failing replay
    raises ``on_error(tag, error)`` for its own request's tag (see
    :func:`run_jobs`).
    """
    (config, seed, scale, rank, ep_rank), trace, requests, on_error = item
    with _obs_span("job.rank", rank=rank, ep=ep_rank, replays=len(requests)):
        started = time.perf_counter()
        if trace is None:
            trace = ctx.trace(config, seed=seed, scale=scale, rank=rank, ep_rank=ep_rank)
        runs = []
        for tag, run_config, allocator_name, kwargs in requests:
            with _attributed(tag, on_error):
                run = run_workload(
                    run_config,
                    allocator_name,
                    seed=seed,
                    scale=scale,
                    rank=rank,
                    ep_rank=ep_rank,
                    trace=trace,
                    ctx=ctx,
                    **kwargs,
                )
            runs.append((run, time.perf_counter() - started))
            started = time.perf_counter()
        return runs


def _work_items(groups: list[tuple], ctx: ExecutionContext, on_error) -> tuple[list, list]:
    """:func:`replay_rank` items for ``groups`` and the (job, class) each fills.

    ``groups`` holds one ``(trace args, [(owner, request)])`` per trace.  Each
    trace is one item, unless there are fewer traces than ``ctx.jobs``
    workers: then a trace's requests are split over up to ``ceil(jobs /
    traces)`` items so every worker has work, and the trace is fetched here
    once, so no two workers race to generate it.  The items read it back
    from the disk cache the fetch stored it in (so the parent need not keep
    it alive), or carry it in their payload when there is none, so it is
    generated once on every multiprocessing start method.
    """
    pieces = -(-ctx.jobs // len(groups)) if groups else 1
    owners, items = [], []
    for trace_args, requests in groups:
        count = min(pieces, len(requests))
        trace = None
        if count > 1:
            config, seed, scale, rank, ep_rank = trace_args
            trace = ctx.trace(config, seed=seed, scale=scale, rank=rank, ep_rank=ep_rank)
            if ctx.cache_dir is not None:
                trace = None  # each item fetches it from the disk cache
        size = len(requests)
        for piece in range(count):
            chunk = requests[size * piece // count : size * (piece + 1) // count]
            owners.append([owner for owner, _ in chunk])
            items.append((trace_args, trace, [request for _, request in chunk], on_error))
    return owners, items


def run_jobs(
    jobs: list[tuple[object, SweepPoint]],
    *,
    ctx: ExecutionContext | None = None,
    on_error=None,
) -> Iterator[tuple[object, JobRun, float]]:
    """Run several whole-job measurements, fetching each rank trace once.

    ``jobs`` pairs a caller's tag with each job's :class:`SweepPoint` (see
    :meth:`SweepPoint.build`), read as it is.  Every job's replays -- one per
    rank class of :func:`~repro.simulator.ranks.job_rank_classes` -- are
    grouped under the trace they read (the fingerprint of the class
    representative), so jobs that differ only in allocator, STAlloc knobs,
    budgets or fabric share one fetch of each rank's trace, and ``ctx.map``
    fans out :func:`replay_rank` work items, one per trace unless there are
    fewer traces than workers (see :func:`_work_items`).  Yields ``(tag,
    JobRun, seconds)`` as each job's last rank returns; ``seconds`` is the
    host time of its replays and pricing.  ``on_error(tag, error)``, when given, builds
    the exception raised in place of any failure of that job (it must be
    picklable: replays run in pool workers too).
    """
    ctx = ctx if ctx is not None else ExecutionContext()
    specs: list[tuple] = []  # per job: (tag, point, its budget GiB, rank classes)
    # trace fingerprint -> (trace args, [((job, class index), request)])
    groups: dict[str, tuple] = {}
    for position, (tag, point) in enumerate(jobs):
        with _attributed(tag, on_error):
            capacity_gib = validate_capacity_gib(point.device_capacity_gib)
            classes = job_rank_classes(
                point.config, point.ranks, dict(point.device_memory_by_rank), capacity_gib
            )
        specs.append((tag, point, capacity_gib, classes))
        replay = dict(
            device_name=point.device_name, stalloc_overrides=dict(point.stalloc_overrides)
        )
        for index, (members, capacity) in enumerate(classes):
            pp, ep = normalize_rank(members[0])
            key = config_fingerprint(
                point.config, seed=point.seed, scale=point.scale, rank=pp, ep_rank=ep
            )
            trace_args = (point.config, point.seed, point.scale, pp, ep)
            request = (
                tag,
                point.config,
                point.allocator,
                dict(replay, device_capacity_gib=capacity),
            )
            groups.setdefault(key, (trace_args, []))[1].append(((position, index), request))

    class_runs = [[None] * len(classes) for *_, classes in specs]
    missing = [len(classes) for *_, classes in specs]
    seconds = [0.0] * len(specs)
    owners, items = _work_items(list(groups.values()), ctx, on_error)
    for item_owners, results in zip(owners, ctx.map(replay_rank, items)):
        for (position, index), (run, elapsed) in zip(item_owners, results):
            class_runs[position][index] = run
            seconds[position] += elapsed
            missing[position] -= 1
            if missing[position]:
                continue
            tag, point, capacity_gib, classes = specs[position]
            started = time.perf_counter()
            with _attributed(tag, on_error):
                with _obs_span("job.run", allocator=point.allocator):
                    job = _assemble_job(point, capacity_gib, classes, class_runs[position])
            yield tag, job, seconds[position] + time.perf_counter() - started


def _assemble_job(
    point: SweepPoint,
    capacity_gib: float | None,
    classes: list[tuple[tuple, float | None]],
    class_runs: list[ReplayResult],
) -> JobRun:
    """One job's :class:`JobRun` from its class replays, priced once per job."""
    # Record the concrete budget every class ran against (the device default
    # when no explicit budget applied), so binding-by-utilization is
    # well-defined whenever any heterogeneity is present.
    default_capacity = default_capacity_gib(point.device_name, capacity_gib)
    # The pipeline advances at the pace of its slowest rank, so the job is
    # priced with the worst per-rank allocator overhead, injected into the
    # simulated phase durations (allocator cost rides the schedule's
    # dependency structure).
    timeline = simulate_timeline(
        point.config,
        gpu=point.gpu,
        seed=point.seed,
        scale=point.scale,
        allocator_overhead_seconds=max(run.overhead_seconds for run in class_runs),
    )
    return JobRun(
        config=point.config,
        allocator_name=point.allocator,
        device_name=point.device_name,
        rank_classes=[members for members, _ in classes],
        class_runs=class_runs,
        timeline=timeline,
        class_capacities=[
            capacity if capacity is not None else default_capacity for _, capacity in classes
        ],
    )
