"""Tests for the baseline allocators (caching, expandable segments, GMLake, native)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocators.base import AllocationHints
from repro.allocators.caching import (
    CachingAllocator,
    CachingAllocatorConfig,
    K_LARGE_BUFFER,
    K_SMALL_BUFFER,
    torch20_config,
    torch23_config,
)
from repro.allocators.expandable import ExpandableSegmentsAllocator
from repro.allocators.gmlake import GMLakeAllocator, GMLakeConfig
from repro.allocators.native import NativeAllocator
from repro.allocators.registry import available_allocators, create_allocator, register_allocator
from repro.gpu.device import Device, GIB, KIB, MIB
from repro.gpu.errors import OutOfMemoryError


class TestCachingAllocatorConfig:
    # Rounding and the pool choice are inlined in the allocator's placement
    # step, so they are observed through the block a request gets.
    def test_round_size_minimum(self, device):
        assert CachingAllocator(device).allocate(1, 1).size == 512

    def test_round_size_multiple(self, device):
        assert CachingAllocator(device).allocate(1, 513).size == 1024

    def test_pool_selection(self, device):
        allocator = CachingAllocator(device)
        allocator.allocate(1, 512 * KIB)
        assert allocator.reserved_bytes == K_SMALL_BUFFER  # a small-pool segment
        allocator.allocate(2, 2 * MIB)
        assert allocator.reserved_bytes == K_SMALL_BUFFER + K_LARGE_BUFFER
        assert [segment.pool for segment in allocator._segments.values()] == ["small", "large"]

    def test_segment_sizes(self):
        config = CachingAllocatorConfig()
        assert config.segment_size_for(512 * KIB) == K_SMALL_BUFFER
        assert config.segment_size_for(4 * MIB) == K_LARGE_BUFFER
        assert config.segment_size_for(33 * MIB) == 34 * MIB  # rounded to 2 MiB

    def test_presets_have_labels(self):
        assert torch20_config().label == "torch2.0"
        assert torch23_config().label == "torch2.3"
        assert torch23_config().max_split_size is not None


class TestCachingAllocator:
    def test_small_request_reserves_small_segment(self, device):
        allocator = CachingAllocator(device)
        allocator.allocate(1, 4 * KIB)
        assert allocator.reserved_bytes == K_SMALL_BUFFER

    def test_medium_request_reserves_large_buffer(self, device):
        allocator = CachingAllocator(device)
        allocator.allocate(1, 4 * MIB)
        assert allocator.reserved_bytes == K_LARGE_BUFFER

    def test_huge_request_reserves_exact_segment(self, device):
        allocator = CachingAllocator(device)
        allocator.allocate(1, 100 * MIB)
        assert allocator.reserved_bytes == 100 * MIB

    def test_cache_reuse_avoids_new_segment(self, device):
        allocator = CachingAllocator(device)
        allocator.allocate(1, 64 * MIB)
        allocator.free(1)
        allocator.allocate(2, 64 * MIB)
        assert allocator.reserved_bytes == 64 * MIB
        assert allocator.stats.cache_hits == 1

    def test_best_fit_prefers_smallest_block(self, device):
        allocator = CachingAllocator(device)
        allocator.allocate(1, 64 * MIB)
        allocator.allocate(2, 32 * MIB)
        allocator.free(1)
        allocator.free(2)
        placement = allocator.allocate(3, 30 * MIB)
        assert placement.pool == "segment:2"  # the 32 MiB segment, not the 64 MiB one

    def test_split_creates_remainder(self, device):
        allocator = CachingAllocator(device)
        allocator.allocate(1, 64 * MIB)
        allocator.free(1)
        allocator.allocate(2, 40 * MIB)
        assert allocator.stats.splits >= 1
        assert allocator.reserved_bytes == 64 * MIB
        # The 24 MiB remainder can serve another request without a new segment.
        allocator.allocate(3, 20 * MIB)
        assert allocator.reserved_bytes == 64 * MIB

    def test_merge_on_free(self, device):
        allocator = CachingAllocator(device)
        allocator.allocate(1, 64 * MIB)
        allocator.free(1)
        allocator.allocate(2, 32 * MIB)
        allocator.allocate(3, 32 * MIB)
        allocator.free(2)
        allocator.free(3)
        assert allocator.stats.merges >= 1
        # After merging, a full-size request fits again without a new segment.
        allocator.allocate(4, 64 * MIB)
        assert allocator.reserved_bytes == 64 * MIB

    def test_allocated_bytes_tracks_requested_sizes(self, device):
        allocator = CachingAllocator(device)
        allocator.allocate(1, 10 * MIB)
        allocator.allocate(2, 5 * MIB)
        assert allocator._allocated_bytes == 15 * MIB
        allocator.free(1)
        assert allocator._allocated_bytes == 5 * MIB

    def test_release_cached_segments(self, device):
        allocator = CachingAllocator(device)
        allocator.allocate(1, 64 * MIB)
        allocator.free(1)
        released = allocator.release_cached_segments()
        assert released == 64 * MIB
        assert allocator.reserved_bytes == 0

    def test_oom_triggers_cache_release_and_retry(self, small_device):
        allocator = CachingAllocator(small_device)
        allocator.allocate(1, 40 * MIB)
        allocator.free(1)
        # 40 MiB is cached; a 50 MiB request does not fit the device unless the
        # cache is released first.
        allocator.allocate(2, 50 * MIB)
        assert allocator.reserved_bytes == 50 * MIB

    def test_oom_raised_when_truly_full(self, small_device):
        allocator = CachingAllocator(small_device)
        allocator.allocate(1, 40 * MIB)
        with pytest.raises(OutOfMemoryError):
            allocator.allocate(2, 40 * MIB)

    def test_double_allocate_same_request_rejected(self, device):
        allocator = CachingAllocator(device)
        allocator.allocate(1, MIB)
        with pytest.raises(ValueError):
            allocator.allocate(1, MIB)

    def test_free_unknown_request_rejected(self, device):
        allocator = CachingAllocator(device)
        with pytest.raises(KeyError):
            allocator.free(99)

    def test_max_split_size_keeps_oversize_blocks_whole(self, device):
        config = CachingAllocatorConfig(max_split_size=64 * MIB, label="test")
        allocator = CachingAllocator(device, config)
        allocator.allocate(1, 128 * MIB)
        allocator.free(1)
        # A small request must not consume (and waste) the oversize cached
        # block; it gets its own (exact-size) segment instead.
        allocator.allocate(2, 16 * MIB)
        assert allocator.reserved_bytes == 128 * MIB + 16 * MIB

    def test_peak_statistics(self, device):
        allocator = CachingAllocator(device)
        allocator.allocate(1, 32 * MIB)
        allocator.allocate(2, 32 * MIB)
        allocator.free(1)
        allocator.free(2)
        assert allocator.stats.peak_allocated == 64 * MIB
        assert allocator.stats.peak_reserved >= 64 * MIB

    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=64 * MIB), st.booleans()),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_invariants_under_random_workload(self, operations):
        """Reserved covers allocated; free/alloc bookkeeping never corrupts."""
        device = Device(name="prop", capacity=512 * GIB)
        allocator = CachingAllocator(device)
        live: list[int] = []
        for index, (size, should_free) in enumerate(operations):
            allocator.allocate(index, size)
            live.append(index)
            if should_free and live:
                allocator.free(live.pop(0))
            assert allocator.reserved_bytes >= 0
            assert allocator.reserved_bytes == device.in_use
            assert allocator._allocated_bytes <= allocator.reserved_bytes
        for req_id in live:
            allocator.free(req_id)
        assert allocator._allocated_bytes == 0


class TestExpandableSegmentsAllocator:
    def test_reserved_grows_by_granules(self, device):
        allocator = ExpandableSegmentsAllocator(device)
        allocator.allocate(1, 3 * MIB)
        assert allocator.reserved_bytes == 4 * MIB  # two 2 MiB granules

    def test_arena_reuses_freed_space(self, device):
        allocator = ExpandableSegmentsAllocator(device)
        allocator.allocate(1, 8 * MIB)
        allocator.free(1)
        allocator.allocate(2, 8 * MIB)
        assert allocator.reserved_bytes == 8 * MIB

    def test_small_and_large_pools_are_separate(self, device):
        allocator = ExpandableSegmentsAllocator(device)
        allocator.allocate(1, 4 * KIB)
        allocator.allocate(2, 8 * MIB)
        assert len(allocator._arenas) == 2

    def test_vmm_ops_counted(self, device):
        allocator = ExpandableSegmentsAllocator(device)
        allocator.allocate(1, 8 * MIB)
        assert allocator.stats.vmm_ops > 0
        assert allocator.overhead_seconds() > 0

    def test_reclaims_granules_under_pressure(self, small_device):
        allocator = ExpandableSegmentsAllocator(small_device)
        allocator.allocate(1, 40 * MIB)
        allocator.free(1)
        # Without reclaiming the 40 MiB of mapped granules this would OOM.
        allocator.allocate(2, 50 * MIB)
        assert allocator._allocated_bytes == 50 * MIB

    def test_oom_when_live_data_exceeds_device(self, small_device):
        allocator = ExpandableSegmentsAllocator(small_device)
        allocator.allocate(1, 40 * MIB)
        with pytest.raises(OutOfMemoryError):
            allocator.allocate(2, 40 * MIB)


class TestGMLakeAllocator:
    def test_behaves_like_caching_for_small_requests(self, device):
        allocator = GMLakeAllocator(device)
        allocator.allocate(1, 4 * KIB)
        allocator.free(1)
        assert allocator.stats.stitches == 0

    def test_stitches_fragmented_blocks(self, device):
        allocator = GMLakeAllocator(device, GMLakeConfig(frag_limit=32 * MIB))
        # Create two non-adjacent free blocks of 64 MiB each (separate segments).
        allocator.allocate(1, 64 * MIB)
        allocator.allocate(2, 64 * MIB)
        allocator.free(1)
        allocator.free(2)
        reserved_before = allocator.reserved_bytes
        allocator.allocate(3, 100 * MIB)
        assert allocator.stats.stitches == 1
        assert allocator.reserved_bytes == reserved_before  # no new segment
        allocator.free(3)

    def test_stitch_respects_frag_limit(self, device):
        allocator = GMLakeAllocator(device, GMLakeConfig(frag_limit=512 * MIB))
        allocator.allocate(1, 64 * MIB)
        allocator.allocate(2, 64 * MIB)
        allocator.free(1)
        allocator.free(2)
        allocator.allocate(3, 100 * MIB)
        # Blocks below fragLimit are not stitched; a new segment is reserved.
        assert allocator.stats.stitches == 0
        assert allocator.reserved_bytes > 128 * MIB

    def test_stitched_free_restores_blocks(self, device):
        allocator = GMLakeAllocator(device, GMLakeConfig(frag_limit=32 * MIB))
        allocator.allocate(1, 64 * MIB)
        allocator.allocate(2, 64 * MIB)
        allocator.free(1)
        allocator.free(2)
        allocator.allocate(3, 100 * MIB)
        allocator.free(3)
        # The two original blocks are reusable again.
        allocator.allocate(4, 64 * MIB)
        allocator.allocate(5, 64 * MIB)
        assert allocator.reserved_bytes == 128 * MIB

    def test_vmm_ops_counted_for_stitches(self, device):
        allocator = GMLakeAllocator(device, GMLakeConfig(frag_limit=32 * MIB))
        allocator.allocate(1, 64 * MIB)
        allocator.allocate(2, 64 * MIB)
        allocator.free(1)
        allocator.free(2)
        allocator.allocate(3, 100 * MIB)
        assert allocator.stats.vmm_ops >= 3
        assert allocator.overhead_seconds() > 0


class TestNativeAllocator:
    def test_reserved_equals_allocated(self, device):
        allocator = NativeAllocator(device)
        allocator.allocate(1, 10 * MIB)
        allocator.allocate(2, 6 * MIB)
        assert allocator.reserved_bytes == allocator._allocated_bytes == 16 * MIB
        allocator.free(1)
        assert allocator.reserved_bytes == 6 * MIB

    def test_every_call_hits_the_driver(self, device):
        allocator = NativeAllocator(device)
        for index in range(5):
            allocator.allocate(index, MIB)
        assert allocator.stats.device_malloc_calls == 5
        assert allocator.overhead_seconds() > 0

    def test_oom_propagates(self, small_device):
        allocator = NativeAllocator(small_device)
        with pytest.raises(OutOfMemoryError):
            allocator.allocate(1, 100 * MIB)


class TestRegistry:
    def test_known_allocators_exist(self):
        names = available_allocators()
        for expected in ("native", "torch2.0", "torch2.3", "torch_es", "gmlake"):
            assert expected in names

    def test_create_allocator(self, device):
        allocator = create_allocator("torch2.3", device)
        assert isinstance(allocator, CachingAllocator)
        assert allocator.name == "torch2.3"

    def test_unknown_name_raises(self, device):
        with pytest.raises(ValueError):
            create_allocator("does-not-exist", device)

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError):
            register_allocator("native", NativeAllocator)

    def test_zero_size_allocation_rejected(self, device):
        allocator = create_allocator("torch2.0", device)
        with pytest.raises(ValueError):
            allocator.allocate(1, 0)

    def test_hints_are_optional(self, device):
        allocator = create_allocator("torch2.0", device)
        allocator.allocate(1, MIB, AllocationHints(module="layer0"))
        allocator.free(1)
