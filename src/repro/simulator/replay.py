"""Replay an allocation trace against an allocator on a simulated device.

One replay's result carries the paper's memory-efficiency metric (§2.2):
``E = M_a / M_r``, where ``M_a`` is the peak allocated (theoretically
required) memory and ``M_r`` the peak memory reserved by the allocator.  The
fragmentation ratio is ``1 - E``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator

from repro.allocators.base import DEFAULT_HINTS, AllocationHints, Allocator
from repro.core.columns import ALLOC, CATEGORIES
from repro.gpu.device import GIB
from repro.gpu.errors import OutOfMemoryError
from repro.obs.tracer import is_enabled as _obs_enabled
from repro.obs.tracer import observe as _obs_observe
from repro.obs.tracer import span as _obs_span
from repro.workloads.trace import Trace


@dataclass
class ReplayResult:
    """Outcome of replaying one trace through one allocator (one rank's replay)."""

    allocator_name: str
    peak_allocated_bytes: int
    peak_reserved_bytes: int
    #: Index of the event that ran out of memory (``-1``: the allocator's
    #: own setup did); ``None`` when the whole trace fit.
    oom_at_event: int | None = None
    oom_request_bytes: int = 0
    events_replayed: int = 0
    failed_allocs: int = 0
    skipped_frees: int = 0
    allocator_stats: dict = field(default_factory=dict)
    overhead_seconds: float = 0.0
    #: The STAlloc variants' planning report; empty for other allocators.
    planning_report: dict = field(default_factory=dict)
    #: Peak concurrently-live COMM_BUFFER bytes of the replayed trace (the
    #: all-to-all dispatch/combine transients plus P2P/ZeRO buffers);
    #: trace-determined, identical for every allocator.
    comm_peak_bytes: int = 0
    #: Peak concurrently-live KV_CACHE bytes of the replayed trace (the
    #: per-layer key/value caches of a generation workload; 0 for training
    #: and inference); trace-determined, identical for every allocator.
    kv_peak_bytes: int = 0

    def __post_init__(self) -> None:
        if self.peak_allocated_bytes < 0 or self.peak_reserved_bytes < 0:
            raise ValueError("peak byte counts must be non-negative")

    @property
    def success(self) -> bool:
        return self.oom_at_event is None

    @property
    def memory_efficiency(self) -> float:
        """``E = M_a / M_r`` (defined as 1.0 when nothing was reserved)."""
        if self.peak_reserved_bytes == 0:
            return 1.0
        return min(1.0, self.peak_allocated_bytes / self.peak_reserved_bytes)

    @property
    def fragmentation_ratio(self) -> float:
        """Fraction of reserved memory wasted: ``1 - E``."""
        return 1.0 - self.memory_efficiency

    @property
    def peak_allocated_gib(self) -> float:
        return self.peak_allocated_bytes / GIB

    @property
    def peak_reserved_gib(self) -> float:
        return self.peak_reserved_bytes / GIB


def price_trace(trace: Trace) -> None:
    """Compute what every replay of ``trace`` reads, under its own ``replay.analytics`` span.

    A replay reads the trace's alloc/free pairing, its peak live bytes and
    its COMM_BUFFER and KV_CACHE peaks.  Each is memoised on the trace, so
    whichever replay ran first used to pay for all of them; priced here,
    before the replays, they are charged to no allocator's ``replay.trace``.
    """
    with _obs_span("replay.analytics", events=trace.num_events):
        trace.columns.pairing()
        trace.peak_allocated_bytes()
        trace.comm_peak_bytes()
        trace.kv_peak_bytes()


def replay_trace(trace: Trace, allocator: Allocator, *, stop_on_oom: bool = True) -> ReplayResult:
    """Feed every event of ``trace`` to ``allocator`` and collect peak metrics.

    When the allocator raises an out-of-memory error the replay stops (the
    training job would have crashed) and the result is flagged unsuccessful;
    peak metrics cover the portion replayed up to that point.

    With ``stop_on_oom=False`` the replay instead skips the failed request and
    keeps going: the failed allocation and its matching free are both counted
    as skipped (never shown to the allocator), so at the end
    ``events_replayed + events_skipped`` equals the trace's event count.

    Allocators that can apply a whole trace in one batched step (see
    :meth:`Allocator.batch_replay`) skip the event loop entirely; they fall
    back to it whenever the outcome could differ (an OOM the batch cannot
    model, pathological pairing, per-event hints), so results are identical
    either way.  A batch that applied fewer events than the trace holds
    stopped on an OOM at the next one, as the loop does.

    The event loop asks the allocator only to place.  When the replay stops
    on the first OOM, no request is live yet and the trace pairs simply
    (which proves every size positive and every id allocated and freed
    once), it calls :meth:`Allocator._do_allocate` / ``_do_free`` directly,
    samples ``_reserved_bytes`` after each allocation, and takes the counts,
    peak allocated bytes and live requests from the replayed prefix of the
    trace.  Otherwise it calls the checked :meth:`Allocator.allocate` /
    ``free``.  An allocator that does not read hints gets one constant
    :class:`AllocationHints`, the others one interned object per distinct
    (phase, module, dyn, category).
    """
    if not _obs_enabled():
        return _replay_trace(trace, allocator, stop_on_oom=stop_on_oom)[0]
    started = time.perf_counter()
    with _obs_span("replay.trace", allocator=allocator.name) as obs_replay:
        result, batched = _replay_trace(trace, allocator, stop_on_oom=stop_on_oom)
        obs_replay.set(events=result.events_replayed, success=result.success, batched=batched)
    elapsed = time.perf_counter() - started
    if elapsed > 0:
        _obs_observe("replay.events_per_sec", result.events_replayed / elapsed)
    return result


def _replay_trace(
    trace: Trace, allocator: Allocator, *, stop_on_oom: bool
) -> tuple[ReplayResult, bool]:
    """The replay's result, and whether the allocator applied it in one batched step."""
    columns = trace.columns
    batched = allocator.batch_replay(trace, stop_on_oom=stop_on_oom)
    if batched is not None and batched < columns.num_events:  # stopped on an OOM there
        return _result(
            trace,
            allocator,
            oom_at_event=batched,
            oom_request_bytes=columns.size[batched],
            events_replayed=batched,
            failed_allocs=1,
        ), True
    if batched is not None:
        return _result(trace, allocator, events_replayed=batched), True
    pairing = columns.pairing()
    direct = (
        stop_on_oom and pairing.ok and pairing.min_alloc_size > 0 and not allocator._live_sizes
    )
    if direct:
        allocate, free = allocator._do_allocate, allocator._do_free
    else:
        allocate, free = allocator.allocate, allocator.free
    hints_of = _hints(trace) if allocator.reads_hints else repeat(DEFAULT_HINTS)
    failed_allocs = 0
    skipped_frees = 0
    oom_at_event: int | None = None
    oom_request_bytes = 0
    failed_requests: set[int] = set()
    peak_reserved = allocator.stats.peak_reserved
    end = columns.num_events
    for index, (kind, req_id, size, hints) in enumerate(
        zip(columns.kind, columns.req_id, columns.size, hints_of)
    ):
        if kind == ALLOC:
            try:
                allocate(req_id, size, hints)
            except OutOfMemoryError:
                if oom_at_event is None:
                    oom_at_event = index
                    oom_request_bytes = size
                failed_allocs += 1
                if stop_on_oom:
                    end = index + 1
                    break
                failed_requests.add(req_id)
                continue
            reserved = allocator._reserved_bytes
            if reserved > peak_reserved:
                peak_reserved = reserved
        elif req_id in failed_requests:
            # The matching allocation never happened; drop the request from
            # the failed set so the bookkeeping stays bounded and a
            # (pathological) re-use of the id is not swallowed too.
            failed_requests.discard(req_id)
            skipped_frees += 1
        else:
            free(req_id)
    events_replayed = end - failed_allocs - skipped_frees
    allocator.stats.peak_reserved = peak_reserved
    if direct:
        allocator._settle_books(trace, events_replayed)
    return _result(
        trace,
        allocator,
        oom_at_event=oom_at_event,
        oom_request_bytes=oom_request_bytes,
        events_replayed=events_replayed,
        failed_allocs=failed_allocs,
        skipped_frees=skipped_frees,
    ), False


def _hints(trace: Trace) -> Iterator[AllocationHints]:
    """Each event's hints, one object per distinct (phase, module, dyn, category)."""
    columns = trace.columns
    phases = trace.phase_table()
    modules = columns.modules
    interned: dict[tuple[int, int, int, int], AllocationHints] = {}
    for key in zip(columns.phase_index, columns.module_index, columns.dyn, columns.category):
        hints = interned.get(key)
        if hints is None:
            phase_index, module_index, dyn, category = key
            hints = interned[key] = AllocationHints(
                phase=phases[phase_index],
                module=modules[module_index],
                dyn=bool(dyn),
                category=CATEGORIES[category],
            )
        yield hints


def _result(trace: Trace, allocator: Allocator, **outcome) -> ReplayResult:
    """The result of a finished replay: ``outcome`` plus what the allocator and trace hold."""
    return ReplayResult(
        allocator_name=allocator.name,
        peak_allocated_bytes=allocator.stats.peak_allocated,
        peak_reserved_bytes=allocator.stats.peak_reserved,
        allocator_stats=allocator.stats.snapshot(),
        overhead_seconds=allocator.overhead_seconds(),
        comm_peak_bytes=trace.comm_peak_bytes(),
        kv_peak_bytes=trace.kv_peak_bytes(),
        **outcome,
    )
