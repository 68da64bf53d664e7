"""Seeded fuzz/property suite for the columnar trace core.

The columnar core's contract is *observational equivalence*: the
structure-of-arrays storage (:mod:`repro.core.columns`) must be
indistinguishable from a list of event objects everywhere it is consumed.
This suite locks that down across ~200 randomly drawn configurations in four
layers:

* **analytics equivalence** -- every statistic on
  :class:`TraceColumns` matches a hand-rolled reference loop over the
  trace's rows as ``TraceEvent`` objects (``tests/trace_oracle.py``);
* **round-trips** -- columns -> event objects -> columns is lossless, and the
  canonical serialization (and therefore the digest) of a trace rebuilt from
  its event objects is identical;
* **replay equivalence** -- the native allocator's
  ``batch_replay`` leaves allocator and device in exactly the state of the
  event-by-event loop (results, stats, live allocations, addresses, driver
  counter), and refuses pathological traces the loop handles differently,
  which the profiler rejects;
* **timeline equivalence** -- the record-buffer emission of the timeline
  simulator agrees with its lazy event view, its accounted totals,
  and reruns bit-identically (digest-stable).

Configurations are drawn from fixed-seed RNGs, so failures reproduce.
"""

from __future__ import annotations

import random

import pytest

from repro.allocators.native import NativeAllocator
from repro.core.events import EventKind, Phase, PhaseKind, TensorCategory
from repro.core.profiler import ProfileResult
from repro.gpu.device import GIB, Device
from repro.simulator.replay import replay_trace
from repro.timeline.simulator import TimelineSimulator, simulate_timeline
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.trace import Trace
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import TrainingConfig
from tests.trace_oracle import TraceEvent, events_of, make_trace, reload

GPT_TINY = get_model("gpt-tiny")
MOE_TINY = get_model("moe-tiny")


def _draw_config(rng: random.Random) -> tuple[TrainingConfig, int, int]:
    """One random (config, seed, ep_rank) triple covering dense and MoE."""
    moe = rng.random() < 0.5
    pipeline = rng.choice([1, 2, 4])
    expert = rng.choice([1, 2, 4, 8]) if moe else 1
    config = TrainingConfig(
        model=MOE_TINY if moe else GPT_TINY,
        parallelism=ParallelismConfig(
            pipeline_parallel=pipeline,
            data_parallel=rng.choice([1, 2, 4]),
            expert_parallel=expert,
        ),
        micro_batch_size=rng.choice([1, 2]),
        num_microbatches=rng.choice([1, 2, 4]),
        recompute=rng.random() < 0.3,
        moe_imbalance=rng.choice([0.0, rng.random()]),
        moe_comm_factor=rng.choice([0.0, 0.5, 1.0]) if moe else 0.0,
    )
    ep_rank = rng.randrange(expert) if moe else 0
    return config, rng.randrange(10_000), ep_rank


def _generate(config: TrainingConfig, seed: int, ep_rank: int) -> Trace:
    return TraceGenerator(config, seed=seed, ep_rank=ep_rank).generate()


# ---------------------------------------------------------------------- #
# Analytics: columns vs a reference loop over the objects
# ---------------------------------------------------------------------- #
def _reference_analytics(events: list[TraceEvent]) -> dict:
    """The old object-walking implementations, kept as the oracle."""
    live = 0
    peak = 0
    comm_live = 0
    comm_peak = 0
    sizes: list[int] = []
    for event in events:
        if event.kind is EventKind.ALLOC:
            live += event.size
            peak = max(peak, live)
            sizes.append(event.size)
            if event.category is TensorCategory.COMM_BUFFER:
                comm_live += event.size
                comm_peak = max(comm_peak, comm_live)
        else:
            live -= event.size
            if event.category is TensorCategory.COMM_BUFFER:
                comm_live -= event.size
    return {
        "peak": peak,
        "comm_peak": comm_peak,
        "num_requests": len(sizes),
        "num_dynamic": sum(1 for e in events if e.kind is EventKind.ALLOC and e.dyn),
        "sizes": sizes,
        "distinct_gt_512": len({s for s in sizes if s > 512}),
        "end_time": events[-1].time + 1 if events else 0,
    }


@pytest.mark.parametrize("draw", range(60))
def test_columnar_analytics_match_reference_loop(draw):
    config, seed, ep_rank = _draw_config(random.Random(1000 + draw))
    trace = _generate(config, seed, ep_rank)
    events = events_of(trace)
    reference = _reference_analytics(events)

    assert trace.peak_allocated_bytes() == reference["peak"]
    assert trace.comm_peak_bytes() == reference["comm_peak"]
    assert trace.num_requests == reference["num_requests"]
    assert ProfileResult(trace).summary()["num_dynamic_requests"] == reference["num_dynamic"]
    assert trace.allocation_sizes() == reference["sizes"]
    assert trace.distinct_sizes() == reference["distinct_gt_512"]
    assert trace.end_time() == reference["end_time"]


@pytest.mark.parametrize("draw", range(40))
def test_view_round_trips_and_digest_stability(draw, tmp_path):
    config, seed, ep_rank = _draw_config(random.Random(2000 + draw))
    trace = _generate(config, seed, ep_rank)

    # columns -> events -> columns is lossless.
    events = events_of(trace)
    twin = make_trace(
        events, metadata=trace.metadata, phases=trace.phases, module_spans=trace.module_spans
    )
    rebuilt = twin.columns
    for name in ("kind", "req_id", "size", "time", "phase_index", "dyn", "category"):
        assert getattr(rebuilt, name) == getattr(trace.columns, name), name
    # Interned tables may permute; the decoded strings must not.
    assert [rebuilt.modules[i] for i in rebuilt.module_index] == [
        trace.columns.modules[i] for i in trace.columns.module_index
    ]
    assert [rebuilt.tags[i] for i in rebuilt.tag_index] == [
        trace.columns.tags[i] for i in trace.columns.tag_index
    ]
    # The twin rebuilt from event objects serializes byte-identically.
    assert twin.digest() == trace.digest()

    # Serialization round-trips through the streaming parser.
    loaded = reload(trace.dumps(), tmp_path)
    assert loaded.digest() == trace.digest()
    assert events_of(loaded) == events
    assert loaded.peak_allocated_bytes() == trace.peak_allocated_bytes()
    assert ProfileResult(loaded).columns == ProfileResult(trace).columns


# ---------------------------------------------------------------------- #
# Replay: batch replay vs the event-by-event loop
# ---------------------------------------------------------------------- #
def _force_slow(allocator: NativeAllocator) -> NativeAllocator:
    """Disable the fast path so ``replay_trace`` walks every event."""
    allocator.batch_replay = lambda trace, stop_on_oom=True: None
    return allocator


def _allocator_state(allocator: NativeAllocator) -> dict:
    device = allocator.device
    return {
        "stats": allocator.stats.snapshot(),
        "live_sizes": dict(allocator._live_sizes),
        "placements": {
            req_id: (allocation.address, allocation.size)
            for req_id, allocation in allocator._allocations.items()
        },
        "device_allocations": {
            address: allocation.size
            for address, allocation in device._allocations.items()
        },
        "device_in_use": device.in_use,
        "device_stats": (
            device.stats.malloc_calls,
            device.stats.free_calls,
            device.stats.bytes_allocated_total,
            device.stats.peak_in_use,
        ),
        "next_address": next(device._next_address),
        "overhead": allocator.overhead_seconds(),
    }


@pytest.mark.parametrize("draw", range(40))
def test_batch_replay_matches_event_loop(draw):
    config, seed, ep_rank = _draw_config(random.Random(3000 + draw))
    trace = _generate(config, seed, ep_rank)

    fast = NativeAllocator(Device(name="fast", capacity=512 * GIB))
    slow = _force_slow(NativeAllocator(Device(name="slow", capacity=512 * GIB)))
    fast_result = replay_trace(trace, fast)
    slow_result = replay_trace(trace, slow)

    assert fast_result.success and slow_result.success
    assert fast_result.events_replayed == trace.num_events
    assert fast_result == slow_result
    assert _allocator_state(fast) == _allocator_state(slow)


def test_batch_replay_declines_oom_traces():
    config, seed, ep_rank = _draw_config(random.Random(99))
    trace = _generate(config, seed, ep_rank)
    capacity = max(trace.peak_allocated_bytes() - 1, 1)
    fast = NativeAllocator(Device(name="fast", capacity=capacity))
    slow = _force_slow(NativeAllocator(Device(name="slow", capacity=capacity)))
    fast_result = replay_trace(trace, fast)
    slow_result = replay_trace(trace, slow)
    assert not fast_result.success
    assert fast_result == slow_result


def test_batch_replay_requires_fresh_allocator():
    config, seed, ep_rank = _draw_config(random.Random(7))
    trace = _generate(config, seed, ep_rank)
    allocator = NativeAllocator(Device(name="used", capacity=512 * GIB))
    allocator.allocate(10**9, 1024)
    assert allocator.batch_replay(trace) is None


def _phase() -> Phase:
    return Phase(index=0, kind=PhaseKind.FORWARD, microbatch=0)


def _event(kind: EventKind, req_id: int, size: int, time: int) -> TraceEvent:
    return TraceEvent(kind=kind, req_id=req_id, size=size, time=time, phase=_phase())


@pytest.mark.parametrize(
    "events",
    [
        # Request id allocated twice.
        [
            _event(EventKind.ALLOC, 1, 256, 0),
            _event(EventKind.FREE, 1, 256, 1),
            _event(EventKind.ALLOC, 1, 256, 2),
            _event(EventKind.ALLOC, 1, 512, 3),
        ],
        # Free without a matching allocation.
        [_event(EventKind.ALLOC, 1, 256, 0), _event(EventKind.FREE, 2, 256, 1)],
        # Free before its allocation.
        [_event(EventKind.FREE, 1, 256, 0), _event(EventKind.ALLOC, 1, 256, 1)],
        # Size mismatch between alloc and free.
        [_event(EventKind.ALLOC, 1, 256, 0), _event(EventKind.FREE, 1, 128, 1)],
    ],
    ids=["reused-id", "unmatched-free", "free-first", "size-mismatch"],
)
def test_batch_replay_declines_pathological_pairing(events):
    trace = make_trace(events, phases=[_phase()])
    assert not trace.columns.pairing().ok
    allocator = NativeAllocator(Device(name="d", capacity=GIB))
    assert allocator.batch_replay(trace) is None


def test_batch_replay_declines_non_positive_sizes():
    trace = make_trace([_event(EventKind.ALLOC, 1, 0, 0)], phases=[_phase()])
    allocator = NativeAllocator(Device(name="d", capacity=GIB))
    assert allocator.batch_replay(trace) is None


#: One trace per way a pairing stops being simple, and the profiler's error.
NOT_SIMPLE_TRACES = {
    "allocated-twice": (
        [_event(EventKind.ALLOC, 1, 256, 0), _event(EventKind.ALLOC, 1, 256, 1)],
        "request 1 allocated twice",
    ),
    "freed-twice": (
        [
            _event(EventKind.ALLOC, 1, 256, 0),
            _event(EventKind.FREE, 1, 256, 1),
            _event(EventKind.FREE, 1, 256, 2),
        ],
        "free of unknown request 1",
    ),
    "free-without-alloc": (
        [_event(EventKind.ALLOC, 1, 256, 0), _event(EventKind.FREE, 2, 256, 1)],
        "free of unknown request 2",
    ),
    "free-before-alloc": (
        [_event(EventKind.FREE, 1, 256, 0), _event(EventKind.ALLOC, 1, 256, 1)],
        "free of unknown request 1",
    ),
    "size-mismatch": (
        [_event(EventKind.ALLOC, 1, 256, 0), _event(EventKind.FREE, 1, 128, 1)],
        "request 1 freed with 128 bytes, allocated with 256",
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_SIMPLE_TRACES))
def test_pairing_that_is_not_simple_is_refused_by_the_profiler(case):
    events, message = NOT_SIMPLE_TRACES[case]
    trace = make_trace(events, phases=[_phase()])
    assert not trace.columns.pairing().ok
    with pytest.raises(ValueError, match="does not pair simply"):
        trace.columns.request_columns(end_of_trace=trace.end_time())
    with pytest.raises(ValueError) as raised:
        ProfileResult(trace)
    assert str(raised.value) == message


def test_pairing_accepts_generator_traces():
    config, seed, ep_rank = _draw_config(random.Random(4242))
    trace = _generate(config, seed, ep_rank)
    pairing = trace.columns.pairing()
    assert pairing.ok
    num_allocs = len(pairing.alloc_pos)
    assert num_allocs == trace.num_requests == len(pairing.free_pos)
    assert pairing.num_frees + len(pairing.survivors) == num_allocs
    assert pairing.allocated_bytes == sum(trace.allocation_sizes())
    assert pairing.min_alloc_size == min(trace.allocation_sizes())
    assert [ordinal for ordinal, _, _ in pairing.survivors] == [
        ordinal for ordinal, pos in enumerate(pairing.free_pos) if pos < 0
    ]


# ---------------------------------------------------------------------- #
# Timeline: record buffers vs the lazy object view
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("draw", range(50))
def test_timeline_records_match_views_and_totals(draw):
    config, seed, ep_rank = _draw_config(random.Random(4000 + draw))
    result = TimelineSimulator(config, seed=seed, scale=0.5).run()

    for rank in result.ranks:
        records = list(rank.iter_records())
        events = rank.events
        assert len(records) == rank.num_events == len(events)
        for record, event in zip(records, events):
            assert record == (
                event.kind, event.start, event.duration,
                event.microbatch, event.chunk, event.layer,
            )
            assert event.rank == rank.rank
        # Accounted totals equal the per-kind sums over the emitted records.
        compute = sum(
            r[2] for r in records
            if r[0] in ("forward", "backward", "expert_forward", "expert_backward")
        )
        comm = sum(r[2] for r in records if r[0] in ("a2a_dispatch", "a2a_combine"))
        stall = sum(r[2] for r in records if r[0] == "stall")
        assert rank.compute_seconds == pytest.approx(compute, abs=0.0, rel=1e-12)
        assert rank.comm_seconds == pytest.approx(comm, abs=0.0, rel=1e-12)
        assert rank.stall_seconds == pytest.approx(stall, abs=0.0, rel=1e-12)
        if records:
            assert rank.finish_seconds == max(r[1] + r[2] for r in records)
    assert result.iteration_seconds == max(r.finish_seconds for r in result.ranks)


@pytest.mark.parametrize("draw", range(10))
def test_timeline_rerun_is_digest_stable(draw):
    config, seed, ep_rank = _draw_config(random.Random(5000 + draw))
    first = simulate_timeline(config, seed=seed, scale=0.5)
    second = simulate_timeline(config, seed=seed, scale=0.5)
    assert first is not second
    assert first.digest() == second.digest()
    assert list(first.iter_jsonl()) == list(second.iter_jsonl())
