"""Structural invariants and brute-force oracles for the stateful replay path.

Nothing here is fed by ``tracegen``: alloc/free streams, interval sets and
pathological traces are drawn directly from a seeded RNG, so a modelling bug
shared by the generator and an allocator cannot hide.  The allocators' linked
block lists, free indexes and granule accounting are re-derived from scratch
after every operation; the int-only interval searches and the columnar
request pairing are pinned against ten-line reference implementations.
"""

from __future__ import annotations

import random

import pytest

from repro.allocators.base import AllocationHints, Allocator, Placement
from repro.allocators.caching import (
    CachingAllocator,
    free_key_fields,
    torch20_config,
    torch23_config,
)
from repro.allocators.expandable import ExpandableSegmentsAllocator
from repro.allocators.gmlake import GMLakeAllocator, GMLakeConfig
from repro.core.columns import CATEGORIES
from repro.core.events import EventKind, Phase, PhaseKind, TensorCategory
from repro.core.profiler import ProfileResult
from repro.core.intervals import Interval, IntervalSet
from repro.gpu.device import Device, KIB, MIB
from repro.gpu.errors import OutOfMemoryError
from repro.simulator.replay import replay_trace
from repro.workloads.trace import Trace
from tests.carve_oracle import best_fit_within
from tests.test_golden_traces import _case_configs
from tests.test_placement_digests import _golden_trace
from tests.trace_oracle import TraceEvent, events_of, make_trace, requests_of


# ---------------------------------------------------------------------- #
# Random alloc/free streams
# ---------------------------------------------------------------------- #
def _random_stream(seed: int, operations: int):
    """Yield ``("alloc", req_id, size)`` / ``("free", req_id, 0)`` operations."""
    rng = random.Random(seed)
    live: list[int] = []
    for req_id in range(operations):
        if live and rng.random() < 0.5:
            yield "free", live.pop(rng.randrange(len(live))), 0
            continue
        bucket = rng.random()
        if bucket < 0.5:
            size = rng.randrange(1, 1 * MIB)
        elif bucket < 0.85:
            size = rng.randrange(1 * MIB, 24 * MIB)
        else:
            size = rng.randrange(24 * MIB, 96 * MIB) // KIB * KIB
        live.append(req_id)
        yield "alloc", req_id, size
    for req_id in live:  # drain, so full coalescing is exercised too
        yield "free", req_id, 0


def _drive(allocator: Allocator, seed: int, operations: int, check) -> int:
    """Apply a random stream, calling ``check`` after every operation."""
    failed: set[int] = set()
    for op, req_id, size in _random_stream(seed, operations):
        if op == "alloc":
            try:
                allocator.allocate(req_id, size)
            except OutOfMemoryError:
                failed.add(req_id)
        elif req_id not in failed:
            allocator.free(req_id)
        check(allocator)
    return len(failed)


def _check_block_structure(allocator: CachingAllocator) -> None:
    free_by_pool: dict[str, list[tuple[int, int, int]]] = {"small": [], "large": []}
    for segment in allocator._segments.values():
        blocks = [segment.blocks[offset] for offset in sorted(segment.blocks)]
        cursor = 0
        previous = None
        for block in blocks:
            assert block.offset == cursor, "blocks must tile the segment"
            assert block.size > 0
            assert block.prev is previous, "prev link out of step with address order"
            assert segment.blocks[block.offset] is block
            if previous is not None:
                assert not (previous.free and block.free), "adjacent free blocks not merged"
            if block.free:
                assert block.req_id is None
                free_by_pool[segment.pool].append((block.size, block.segment_id, block.offset))
            cursor = block.offset + block.size
            previous = block
        assert cursor == segment.size
    for pool, expected in free_by_pool.items():
        index = allocator._free_index[pool]
        assert index == sorted(index)
        assert [free_key_fields(key) for key in index] == sorted(expected)
    assert allocator.reserved_bytes == sum(s.size for s in allocator._segments.values())


BLOCK_ALLOCATORS = {
    "torch2.0": lambda device: CachingAllocator(device, torch20_config()),
    "torch2.3": lambda device: CachingAllocator(device, torch23_config()),
    "gmlake": GMLakeAllocator,
    "gmlake-stitch": lambda device: GMLakeAllocator(
        device, GMLakeConfig(frag_limit=4 * MIB, min_stitch_request=8 * MIB)
    ),
}


class TestBlockListInvariants:
    @pytest.mark.parametrize("name", sorted(BLOCK_ALLOCATORS))
    @pytest.mark.parametrize("seed", range(3))
    def test_blocks_tile_link_and_index_after_every_operation(self, name, seed):
        # 512 MiB is tight for this stream: cached segments get released and
        # some requests fail, so those paths are walked as well.
        allocator = BLOCK_ALLOCATORS[name](Device(name="inv", capacity=512 * MIB))
        failed = _drive(allocator, seed, 1200, _check_block_structure)
        assert allocator._allocated_bytes == 0
        for segment in allocator._segments.values():
            assert len(segment.blocks) == 1 and segment.is_fully_free()
        if name == "gmlake-stitch":
            assert allocator.stats.stitches > 0
        if name.startswith("torch"):
            assert allocator.stats.device_free_calls > 0 and failed > 0


def _total(interval_set: IntervalSet) -> int:
    return sum(interval.end - interval.start for interval in interval_set)


def _check_arena_accounting(allocator: ExpandableSegmentsAllocator) -> None:
    """The interval sets are the only record of the granules: re-derive the rest."""
    granule = allocator.config.granule
    mapped_total = 0
    for arena in allocator._arenas.values():
        for interval in arena.free:
            assert arena.mapped.contains(interval.start, interval.end), "free must lie in mapped"
        for interval in arena.mapped:
            assert interval.start % granule == interval.end % granule == 0, "whole granules only"
        assert not arena.mapped or list(arena.mapped)[-1].end <= arena.tail <= arena.virtual_size
        mapped_total += _total(arena.mapped)
    assert mapped_total == allocator.reserved_bytes
    assert mapped_total == allocator.device.in_use
    device = allocator.device
    assert len(device._allocations) + device._run_allocations == mapped_total // granule
    stats = allocator.vmm.stats
    assert stats.handles_created - stats.handles_released == mapped_total // granule
    assert allocator.stats.vmm_ops == (
        stats.handles_created + stats.map_calls + stats.unmap_calls + stats.handles_released
    )
    live = sum(size for _, _, size in allocator._placements.values())
    free = sum(_total(arena.free) for arena in allocator._arenas.values())
    assert live + free == mapped_total


class TestExpandableArenaInvariants:
    @pytest.mark.parametrize("seed", range(3))
    def test_free_within_mapped_and_reserved_matches_granules(self, seed):
        allocator = ExpandableSegmentsAllocator(Device(name="inv", capacity=448 * MIB))
        _drive(allocator, seed, 800, _check_arena_accounting)
        assert allocator.vmm.stats.handles_released > 0, "the stream must force a reclaim"

    @pytest.mark.parametrize("seed", range(3))
    def test_an_arena_out_of_virtual_range_is_an_oom(self, seed):
        """Reclaimed virtual space is never mapped again, so under sustained
        pressure the tail reaches the end of the arena's reserved range (4x
        capacity).  That is an OOM like any other growth that cannot be backed,
        never an address error, and the books stay straight through it."""
        allocator = ExpandableSegmentsAllocator(Device(name="inv", capacity=448 * MIB))
        out_of_range: list[int] = []
        inner = allocator.allocate

        def allocate(req_id, size, hints=None):
            try:
                return inner(req_id, size, hints)
            except OutOfMemoryError as oom:
                if "virtual range" in str(oom):
                    out_of_range.append(req_id)
                raise

        allocator.allocate = allocate
        failed = _drive(allocator, seed, 2000, _check_arena_accounting)
        assert failed >= len(out_of_range)
        if seed < 2:  # these two streams walk the large arena's tail to the end
            assert out_of_range

    def test_reclaim_mid_run_sees_the_granules_mapped_so_far(self):
        """The granules of a growth run are committed before a reclaim runs.

        12 MiB device, 2 MiB granules.  With [0, 4) free and [4, 6) live, an
        8 MiB request needs four granules at the tail; the device supplies
        three and runs dry.  The reclaim must see those three as mapped and
        free -- it takes them back along with [0, 4) -- so the run ends with a
        hole, the retry maps a fresh contiguous run, and the request lands at
        12 MiB.  (A reclaim blind to the pending run would leave [6, 14)
        contiguous and place the request at 6 MiB: a different decision.)
        """
        allocator = ExpandableSegmentsAllocator(Device(name="inv", capacity=12 * MIB))
        allocator.allocate(1, 4 * MIB)
        allocator.allocate(2, 2 * MIB)
        allocator.free(1)
        placement = allocator.allocate(3, 8 * MIB)
        _check_arena_accounting(allocator)
        assert (placement.address, placement.size) == (12 * MIB, 8 * MIB)
        stats = allocator.vmm.stats
        assert (stats.handles_created, stats.handles_released) == (11, 5)
        assert (stats.map_calls, stats.unmap_calls) == (11, 5)
        assert allocator.stats.vmm_ops == 32
        assert allocator.device.stats.failed_mallocs == 1
        assert allocator.reserved_bytes == 12 * MIB


# ---------------------------------------------------------------------- #
# IntervalSet searches vs a brute-force reference
# ---------------------------------------------------------------------- #
def _random_set(rng: random.Random, span: int = 400) -> IntervalSet:
    out = IntervalSet()
    for _ in range(rng.randrange(0, 12)):
        start = rng.randrange(0, span)
        out.add(start, start + rng.randrange(1, 40))
    return out


def _pairs(interval_set: IntervalSet) -> list[tuple[int, int]]:
    return [(interval.start, interval.end) for interval in interval_set]


def _reference_best_fit(pairs, size):
    fitting = [(end - start, start, end) for start, end in pairs if end - start >= size]
    if not fitting:
        return None
    _, start, end = min(fitting)  # smallest, ties to the lowest address
    return Interval(start, end)


def _reference_intersection(a, b):
    points = sorted({p for start, end in a + b for p in (start, end)})
    pieces = [
        (lo, hi)
        for lo, hi in zip(points, points[1:])
        if any(s <= lo and hi <= e for s, e in a) and any(s <= lo and hi <= e for s, e in b)
    ]
    merged: list[tuple[int, int]] = []
    for lo, hi in pieces:
        if merged and merged[-1][1] == lo:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


class TestIntervalSearchOracles:
    @pytest.mark.parametrize("seed", range(40))
    def test_fits_and_carve_match_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            a, b = _random_set(rng), _random_set(rng)
            pairs_a, pairs_b = _pairs(a), _pairs(b)
            common = _reference_intersection(pairs_a, pairs_b)
            for size in (1, 2, 5, 13, 39, 80):
                best = _reference_best_fit(pairs_a, size)
                within = _reference_best_fit(common, size)
                carved_within = IntervalSet(pairs_a)
                start = carved_within.carve_within(b, size)
                assert start == (None if within is None else within.start)
                assert start == best_fit_within(a, b, size)
                expected = IntervalSet(pairs_a)
                if start is not None:
                    expected.remove(start, start + size)
                assert carved_within == expected
                carved_from = IntervalSet(pairs_a)
                carved = carved_from.carve(size)
                if best is None:
                    assert carved is None and carved_from == a
                else:
                    assert carved == best.start
                    expected = IntervalSet(pairs_a)
                    expected.remove(carved, carved + size)
                    assert carved_from == expected
            for probe in range(0, 450, 7):
                expected = next((e - s for s, e in pairs_a if e == probe), 0)
                assert a.length_ending_at(probe) == expected
            for start, end in pairs_a:
                assert a.length_ending_at(end) == end - start

    def test_non_positive_size_is_rejected(self):
        with pytest.raises(ValueError, match="size must be positive"):
            IntervalSet.full(0, 8).carve(0)
        with pytest.raises(ValueError, match="size must be positive"):
            IntervalSet.full(0, 8).carve_within(IntervalSet.full(0, 8), -1)


# ---------------------------------------------------------------------- #
# Columnar request pairing vs the object oracle
# ---------------------------------------------------------------------- #
def _event(kind, req_id, size, time, phase, module="m", dyn=False):
    return TraceEvent(
        kind=kind, req_id=req_id, size=size, time=time, phase=phase, module=module, dyn=dyn,
        category=TensorCategory.ACTIVATION, tag=f"t{req_id}",
    )


FORWARD = Phase(index=0, kind=PhaseKind.FORWARD, microbatch=0)
BACKWARD = Phase(index=1, kind=PhaseKind.BACKWARD, microbatch=0)
ALLOC, FREE = EventKind.ALLOC, EventKind.FREE


def _rows(requests) -> list[tuple]:
    """Request objects as :class:`RequestColumns` rows."""
    return [
        (m.alloc_time, m.req_id, m.size, m.free_time, m.alloc_phase.index,
         m.free_phase.index, int(m.dyn))
        for m in requests
    ]


class TestColumnarPairing:
    @pytest.mark.parametrize("case_name", sorted(_case_configs()))
    def test_golden_traces_pair_like_the_object_loop(self, case_name):
        trace = _golden_trace(case_name)
        assert trace.columns.pairing().ok
        columns = ProfileResult(trace).columns
        assert list(zip(*columns)) == _rows(requests_of(trace))

    def test_survivors_and_empty_free_modules(self):
        events = [
            _event(ALLOC, 7, 64, 0, FORWARD, module="layer.0"),
            _event(ALLOC, 3, 32, 1, FORWARD, module="layer.1", dyn=True),
            _event(FREE, 3, 32, 2, BACKWARD, module=""),  # falls back to the alloc module
            _event(ALLOC, 9, 16, 3, BACKWARD, module="layer.2"),
        ]
        trace = make_trace(events)
        assert trace.columns.pairing().ok
        profile = ProfileResult(trace)
        assert list(zip(*profile.columns)) == _rows(requests_of(trace)) == [
            (0, 7, 64, 4, FORWARD.index, BACKWARD.index, 0),
            (1, 3, 32, 2, FORWARD.index, BACKWARD.index, 1),
            (3, 9, 16, 4, BACKWARD.index, BACKWARD.index, 0),
        ]
        [group] = profile.dynamic_groups
        assert group.key == ("layer.1", "layer.1")

    def test_id_reuse_is_refused_by_the_profiler_and_replayed(self):
        events = [
            _event(ALLOC, 1, 64, 0, FORWARD),
            _event(FREE, 1, 64, 1, FORWARD),
            _event(ALLOC, 1, 32, 2, BACKWARD),
            _event(FREE, 1, 32, 3, BACKWARD),
        ]
        trace = make_trace(events)
        assert not trace.columns.pairing().ok
        with pytest.raises(ValueError, match="^request 1 allocated twice$"):
            ProfileResult(trace)
        assert replay_trace(trace, _HintRecorder()).events_replayed == 4

    def test_malformed_traces_keep_their_diagnostics(self):
        free_first = make_trace([
            _event(FREE, 5, 8, 0, FORWARD), _event(ALLOC, 5, 8, 1, FORWARD),
        ])
        assert not free_first.columns.pairing().ok
        with pytest.raises(ValueError, match="free of unknown request 5"):
            ProfileResult(free_first)
        double = make_trace([
            _event(ALLOC, 5, 8, 0, FORWARD), _event(ALLOC, 5, 8, 1, FORWARD),
        ])
        with pytest.raises(ValueError, match="request 5 allocated twice"):
            ProfileResult(double)
        assert ProfileResult(Trace()).num_requests == 0


# ---------------------------------------------------------------------- #
# The columnar replay loop
# ---------------------------------------------------------------------- #
class _HintRecorder(Allocator):
    """Accepts everything and remembers the hints object of every request."""

    name = "hint-recorder"
    reads_hints = True

    def __init__(self):
        super().__init__()
        self.seen: list[tuple[int, int, AllocationHints]] = []

    def _do_allocate(self, req_id, size, hints):
        self.seen.append((req_id, size, hints))

    def _do_free(self, req_id):
        pass

    def placement(self, req_id):
        return Placement(pool="none", address=0, size=0)

    def overhead_seconds(self):
        return 0.0


class TestColumnarReplayLoop:
    def test_hints_equal_the_events_and_are_interned(self):
        trace = _golden_trace("moe-tiny-comm")
        recorder = _HintRecorder()
        result = replay_trace(trace, recorder)
        assert result.events_replayed == trace.num_events
        allocs = [event for event in events_of(trace) if event.is_alloc()]
        assert len(recorder.seen) == len(allocs)
        by_value: dict[AllocationHints, AllocationHints] = {}
        for event, (req_id, size, hints) in zip(allocs, recorder.seen):
            assert (req_id, size) == (event.req_id, event.size)
            assert hints == AllocationHints(
                phase=event.phase, module=event.module, dyn=event.dyn, category=event.category
            )
            assert hints.phase.kind is event.phase.kind
            assert by_value.setdefault(hints, hints) is hints, "one object per distinct tuple"
        assert 1 < len(by_value) < len(allocs) / 4
        assert any(hints.dyn for hints in by_value) and hints.category in CATEGORIES

    def test_hand_built_trace(self):
        events = [
            _event(ALLOC, 1, 64, 0, FORWARD, module="a", dyn=True),
            _event(FREE, 1, 64, 1, BACKWARD),
            _event(ALLOC, 2, 32, 2, BACKWARD, module="b"),
        ]
        recorder = _HintRecorder()
        result = replay_trace(make_trace(events), recorder)
        assert result.events_replayed == 3 and len(recorder._live_sizes) == 1
        assert [hints.phase for _, _, hints in recorder.seen] == [FORWARD, BACKWARD]
        assert recorder.seen[0][2].phase is FORWARD and recorder.seen[0][2].dyn is True

    def test_undeclared_phase_in_columns_is_an_error(self):
        trace = make_trace([_event(ALLOC, 1, 64, 0, FORWARD)])
        columns_only = Trace(columns=trace.columns, phases=[])
        with pytest.raises(KeyError):
            replay_trace(columns_only, _HintRecorder())
