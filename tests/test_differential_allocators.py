"""Differential allocator tests + replay accounting.

All allocators replay the *same* trace, so the live-bytes curve -- and hence
``peak_allocated`` -- is fully determined by the trace: allocators may only
differ in how much they *reserve* (fragmentation).  These tests pin that down
pairwise across every registered allocator plus the STAlloc variants, and
cover the ``stop_on_oom=False`` bookkeeping of :func:`replay_trace`.
"""

from __future__ import annotations

import pytest

from repro.allocators.registry import available_allocators, create_allocator
from repro.core.events import EventKind, Phase, PhaseKind, TensorCategory
from repro.gpu.device import Device, GIB, MIB
from repro.gpu.errors import OutOfMemoryError
from repro.simulator.replay import replay_trace
from repro.allocators.registry import STALLOC, STALLOC_NO_REUSE
from repro.simulator.runner import JobSpec, run_jobs
from repro.workloads.trace import Trace, TraceMetadata
from repro.workloads.tracegen import TraceGenerator
from tests.trace_oracle import TraceEvent, events_of, make_trace

#: Every allocator the runner can build: the registry's plus the STAlloc variants.
ALL_ALLOCATORS = available_allocators() + [STALLOC, STALLOC_NO_REUSE]

BASELINES = available_allocators()


def lineup_runs(config, ranks=None) -> dict:
    """One rank of ``config`` under every allocator, through one ``run_jobs`` call."""
    jobs = [(name, JobSpec(config, name, ranks=ranks)) for name in ALL_ALLOCATORS]
    return {name: job.class_runs[0] for name, job, _ in run_jobs(jobs)}


@pytest.fixture(scope="module")
def recompute_trace(tiny_dense_config):
    return TraceGenerator(tiny_dense_config.with_(recompute=True), seed=1).generate()


@pytest.fixture(scope="module")
def comm_heavy_config(tiny_moe_config):
    """The MoE config with a skewed router and full all-to-all transients."""
    return tiny_moe_config.with_(
        moe_imbalance=0.6, moe_comm_factor=1.0, label="test-moe-comm"
    )


@pytest.fixture(scope="module")
def comm_heavy_trace(comm_heavy_config):
    """An EP rank 1 trace dominated by dispatch/combine staging buffers."""
    return TraceGenerator(comm_heavy_config, seed=1, ep_rank=1).generate()


def _trace_for(name: str, request):
    return request.getfixturevalue(name)


TRACE_FIXTURES = ["dense_trace", "moe_trace", "recompute_trace", "comm_heavy_trace"]


@pytest.mark.parametrize("trace_name", TRACE_FIXTURES)
@pytest.mark.parametrize("allocator_name", BASELINES)
class TestReservedDominatesAllocated:
    def test_peaks_are_consistent(self, allocator_name, trace_name, request):
        trace = _trace_for(trace_name, request)
        allocator = create_allocator(allocator_name, Device(name="big", capacity=400 * GIB))
        result = replay_trace(trace, allocator)
        assert result.success
        # peak_allocated is trace-determined...
        assert result.metrics.peak_allocated_bytes == trace.peak_allocated_bytes()
        # ...and reservations can never undercut what is live.
        assert result.metrics.peak_reserved_bytes >= result.metrics.peak_allocated_bytes
        assert 0.0 < result.memory_efficiency <= 1.0


@pytest.mark.parametrize("trace_name", TRACE_FIXTURES)
class TestAllAllocatorsAgree:
    def test_peak_allocated_identical_across_allocators(self, trace_name, request):
        trace = _trace_for(trace_name, request)
        peaks = {}
        for name in BASELINES:
            allocator = create_allocator(name, Device(name="big", capacity=400 * GIB))
            result = replay_trace(trace, allocator)
            assert result.success, f"{name} unexpectedly OOMed"
            peaks[name] = result.metrics.peak_allocated_bytes
        assert len(set(peaks.values())) == 1, f"allocators disagree on peak_allocated: {peaks}"


@pytest.mark.parametrize("config_name", ["tiny_dense_config", "tiny_moe_config"])
class TestSuiteIncludingSTAlloc:
    def test_full_lineup_agrees_on_allocated(self, config_name, request):
        """The runner's full line-up (incl. stalloc variants) agrees on M_a."""
        config = request.getfixturevalue(config_name)
        runs = lineup_runs(config)
        peaks = {name: run.replay.metrics.peak_allocated_bytes for name, run in runs.items()}
        assert len(set(peaks.values())) == 1, f"lineup disagrees on peak_allocated: {peaks}"
        for name, run in runs.items():
            reserved = run.replay.metrics.peak_reserved_bytes
            assert reserved >= peaks[name], f"{name} reserved less than allocated"


# ---------------------------------------------------------------------- #
# Comm-heavy traces: identical OOM verdicts and peak agreement everywhere
# ---------------------------------------------------------------------- #
class TestCommHeavyDifferential:
    """All-to-all transients must not make any allocator diverge.

    The dispatch/combine staging buffers are ordinary trace events, so the
    live-bytes curve stays allocator-independent: every registered allocator
    plus the runner's STAlloc variants must agree on the peak, and on the
    OOM verdict both when the device fits the trace and when it cannot.
    """

    def test_full_lineup_agrees_on_comm_heavy_peak(self, comm_heavy_config):
        runs = lineup_runs(comm_heavy_config, ranks=[(0, 1)])
        peaks = {name: run.replay.metrics.peak_allocated_bytes for name, run in runs.items()}
        assert len(set(peaks.values())) == 1, f"lineup disagrees on peak_allocated: {peaks}"
        comm_peaks = {name: run.comm_peak_bytes for name, run in runs.items()}
        assert len(set(comm_peaks.values())) == 1, comm_peaks
        assert next(iter(comm_peaks.values())) > 0

    def test_identical_oom_verdicts_on_both_sides_of_the_peak(self, comm_heavy_config, request):
        from repro.gpu.errors import OutOfMemoryError
        from repro.simulator.runner import run_workload

        trace = request.getfixturevalue("comm_heavy_trace")
        peak = trace.peak_allocated_bytes()

        def verdict(name: str, capacity_bytes: int) -> bool:
            # STAlloc reserves its static pool during the offline pipeline, so
            # an undersized device can fail at planning time already -- the
            # job would not have started, which is the same OOM verdict.
            try:
                run = run_workload(
                    comm_heavy_config,
                    name,
                    device_name="A800-80GB",
                    device_capacity_gib=capacity_bytes / GIB,
                    seed=1,  # replay the same trace the capacities were sized from
                    ep_rank=1,
                )
            except OutOfMemoryError:
                return False
            return run.success

        # A device that cannot hold the live bytes fails every allocator; a
        # generously oversized one fails none.  (Between the two, reservation
        # strategies legitimately differ -- that is the fragmentation story.)
        verdicts = {
            name: (verdict(name, (peak - 1) // 2), verdict(name, 4 * peak))
            for name in ALL_ALLOCATORS
        }
        assert set(verdicts.values()) == {(False, True)}, verdicts


# ---------------------------------------------------------------------- #
# replay_trace(stop_on_oom=False) accounting
# ---------------------------------------------------------------------- #
def _phase(index: int) -> Phase:
    return Phase(index=index, kind=PhaseKind.FORWARD, microbatch=0)


def _mini_trace(events: list[tuple[str, int, int]]) -> Trace:
    """Build a trace from (kind, req_id, size) triples."""
    phase = _phase(0)
    trace_events = [
        TraceEvent(
            kind=EventKind.ALLOC if kind == "alloc" else EventKind.FREE,
            req_id=req_id,
            size=size,
            time=time,
            phase=phase,
            category=TensorCategory.TEMPORARY,
        )
        for time, (kind, req_id, size) in enumerate(events)
    ]
    return make_trace(trace_events, metadata=TraceMetadata(), phases=[phase])


class TestReplayOomAccounting:
    def test_failed_alloc_and_its_free_are_both_skipped(self):
        trace = _mini_trace(
            [
                ("alloc", 0, 1 * MIB),
                ("alloc", 1, 512 * MIB),  # exceeds the 64 MiB device -> fails
                ("free", 1, 512 * MIB),   # must be skipped, not replayed
                ("alloc", 2, 1 * MIB),
                ("free", 2, 1 * MIB),
                ("free", 0, 1 * MIB),
            ]
        )
        allocator = create_allocator("native", Device(name="tiny", capacity=64 * MIB))
        result = replay_trace(trace, allocator, stop_on_oom=False)
        assert not result.success
        assert result.oom_at_event == 1
        assert result.failed_allocs == 1
        assert result.skipped_frees == 1
        assert result.events_replayed == 4
        skipped = result.failed_allocs + result.skipped_frees
        assert result.events_replayed + skipped == trace.num_events

    def test_every_event_is_either_replayed_or_skipped(self, dense_trace):
        allocator = create_allocator("torch2.3", Device(name="tiny", capacity=1 * GIB))
        result = replay_trace(dense_trace, allocator, stop_on_oom=False)
        assert not result.success
        assert result.failed_allocs > 0
        assert (
            result.events_replayed + result.failed_allocs + result.skipped_frees
            == dense_trace.num_events
        )
        # Persistent tensors fail too and are never freed within the trace,
        # so at most every failed alloc has one matching skipped free.
        assert result.skipped_frees <= result.failed_allocs

    def test_repeated_oom_keeps_counting(self):
        events = [("alloc", 0, 4 * MIB)]
        for req_id in range(1, 5):
            events.append(("alloc", req_id, 512 * MIB))
            events.append(("free", req_id, 512 * MIB))
        events.append(("free", 0, 4 * MIB))
        trace = _mini_trace(events)
        allocator = create_allocator("native", Device(name="tiny", capacity=64 * MIB))
        result = replay_trace(trace, allocator, stop_on_oom=False)
        assert result.failed_allocs == 4
        assert result.skipped_frees == 4
        assert result.events_replayed == 2
        assert result.oom_at_event == 1  # first failure position is kept

    def test_stop_on_oom_counts_partial_replay(self):
        trace = _mini_trace(
            [
                ("alloc", 0, 1 * MIB),
                ("alloc", 1, 512 * MIB),
                ("free", 0, 1 * MIB),
            ]
        )
        allocator = create_allocator("native", Device(name="tiny", capacity=64 * MIB))
        result = replay_trace(trace, allocator, stop_on_oom=True)
        assert not result.success
        assert result.events_replayed == 1
        assert result.failed_allocs == 1
        assert result.skipped_frees == 0



# ---------------------------------------------------------------------- #
# reserved_bytes is a running counter: it must equal the recomputed sum
# ---------------------------------------------------------------------- #
def _recomputed_reserved(allocator) -> int:
    """Reserved bytes summed from the allocator's own structures."""
    if hasattr(allocator, "_segments"):  # caching allocator and GMLake
        return sum(segment.size for segment in allocator._segments.values())
    if hasattr(allocator, "_arenas"):  # expandable segments
        return sum(
            interval.end - interval.start
            for arena in allocator._arenas.values()
            for interval in arena.mapped
        )
    return sum(allocation.size for allocation in allocator._allocations.values())


def _drive(trace: Trace, allocator, *, release_every: int = 0) -> dict:
    """Apply ``trace`` event by event, checking the counter after each one.

    Failed allocations (and their frees) are skipped like ``replay_trace``
    does with ``stop_on_oom=False``; ``release_every`` empties the cache of
    allocators that have one every that many events.
    """
    failed: set[int] = set()
    for position, event in enumerate(events_of(trace)):
        if event.is_alloc():
            try:
                allocator.allocate(event.req_id, event.size)
            except OutOfMemoryError:
                failed.add(event.req_id)
        elif event.req_id not in failed:
            allocator.free(event.req_id)
        assert allocator.reserved_bytes == _recomputed_reserved(allocator), position
        if release_every and position % release_every == 0:
            if hasattr(allocator, "release_cached_segments"):
                allocator.release_cached_segments()
            assert allocator.reserved_bytes == _recomputed_reserved(allocator), position
    assert allocator.reserved_bytes == allocator.device.in_use
    return {"failed": len(failed), "device_frees": allocator.device.stats.free_calls}


@pytest.mark.parametrize("trace_name", ["recompute_trace", "comm_heavy_trace"])
@pytest.mark.parametrize("allocator_name", BASELINES)
class TestReservedCounterMatchesRecomputedSum:
    def test_after_every_event(self, allocator_name, trace_name, request):
        trace = _trace_for(trace_name, request)
        allocator = create_allocator(allocator_name, Device(name="big", capacity=400 * GIB))
        outcome = _drive(trace, allocator)
        assert outcome["failed"] == 0
        assert allocator.stats.peak_reserved >= trace.peak_allocated_bytes()

    def test_across_explicit_cache_releases(self, allocator_name, trace_name, request):
        trace = _trace_for(trace_name, request)
        allocator = create_allocator(allocator_name, Device(name="big", capacity=400 * GIB))
        outcome = _drive(trace, allocator, release_every=97)
        assert outcome["failed"] == 0
        if hasattr(allocator, "release_cached_segments"):
            assert outcome["device_frees"] > 0  # segments really went back

    def test_across_oom_retries(self, allocator_name, trace_name, request):
        """A device just above the trace's demand: reserving hits the limit,
        cached memory is handed back and the request retried (or refused)."""
        trace = _trace_for(trace_name, request)
        probe = create_allocator(allocator_name, Device(name="big", capacity=400 * GIB))
        unconstrained = replay_trace(trace, probe).metrics.peak_reserved_bytes
        demand = trace.peak_allocated_bytes()
        device = Device(
            name="tight", capacity=demand + (unconstrained - demand) // 2, reserved_overhead=0
        )
        allocator = create_allocator(allocator_name, device)
        outcome = _drive(trace, allocator)
        if allocator_name != "native":  # native reserves exactly the demand
            assert device.stats.failed_mallocs > 0  # the retry path was taken
        assert allocator.stats.peak_reserved <= device.capacity


def test_native_batch_replay_leaves_the_counter_exact(recompute_trace):
    """The vectorized replay reconstructs the end state, counter included."""
    allocator = create_allocator("native", Device(name="big", capacity=400 * GIB))
    assert allocator.batch_replay(recompute_trace) == recompute_trace.num_events
    assert allocator._live_sizes  # weights and optimizer state survive
    assert allocator.reserved_bytes == _recomputed_reserved(allocator)
    assert allocator.reserved_bytes == allocator.device.in_use > 0
