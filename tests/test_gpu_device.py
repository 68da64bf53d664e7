"""Tests for the simulated GPU device and the VMM driver API."""

from __future__ import annotations

import pytest

from repro.gpu.device import Device, GIB, MIB, a800_80gb, align_up, h200_141gb, mi210_64gb
from repro.gpu.errors import DoubleFreeError, InvalidAddressError, OutOfMemoryError
from repro.gpu.virtual_memory import VirtualMemoryManager


class TestAlignUp:
    def test_already_aligned(self):
        assert align_up(1024, 512) == 1024

    def test_rounds_up(self):
        assert align_up(1025, 512) == 1536

    def test_zero(self):
        assert align_up(0, 512) == 0

    def test_invalid_alignment(self):
        with pytest.raises(ValueError):
            align_up(100, 0)


class TestDevice:
    def test_capacity_accounting(self, device):
        allocation = device.malloc(1 * GIB)
        assert device.in_use == 1 * GIB
        assert device.free_bytes == 15 * GIB
        device.free(allocation)
        assert device.in_use == 0

    def test_malloc_returns_distinct_addresses(self, device):
        a = device.malloc(MIB)
        b = device.malloc(MIB)
        assert a.address != b.address

    def test_oom_raises_with_context(self, small_device):
        with pytest.raises(OutOfMemoryError) as excinfo:
            small_device.malloc(128 * MIB)
        assert excinfo.value.requested == 128 * MIB
        assert excinfo.value.capacity == small_device.usable_capacity

    def test_oom_after_fill(self, small_device):
        small_device.malloc(60 * MIB)
        with pytest.raises(OutOfMemoryError):
            small_device.malloc(8 * MIB)

    def test_failed_malloc_counted(self, small_device):
        with pytest.raises(OutOfMemoryError):
            small_device.malloc(1 * GIB)
        assert small_device.stats.failed_mallocs == 1

    def test_double_free_detected(self, device):
        allocation = device.malloc(MIB)
        device.free(allocation)
        with pytest.raises(DoubleFreeError):
            device.free(allocation)

    def test_free_by_address(self, device):
        allocation = device.malloc(MIB)
        device.free(allocation.address)
        assert device.in_use == 0

    def test_invalid_address_free(self, device):
        with pytest.raises(InvalidAddressError):
            device.free(0)

    def test_negative_size_rejected(self, device):
        with pytest.raises(ValueError):
            device.malloc(-1)

    def test_zero_size_allowed(self, device):
        allocation = device.malloc(0)
        assert allocation.size == 0
        device.free(allocation)

    def test_peak_tracking(self, device):
        a = device.malloc(2 * GIB)
        device.malloc(1 * GIB)
        device.free(a)
        device.malloc(512 * MIB)
        assert device.stats.peak_in_use == 3 * GIB

    def test_reserved_overhead_reduces_usable(self):
        dev = Device(name="x", capacity=10 * GIB, reserved_overhead=2 * GIB)
        assert dev.usable_capacity == 8 * GIB
        with pytest.raises(OutOfMemoryError):
            dev.malloc(9 * GIB)

    def test_invalid_overhead_rejected(self):
        with pytest.raises(ValueError):
            Device(name="x", capacity=GIB, reserved_overhead=2 * GIB)

    def test_free_all(self, device):
        device.malloc(GIB)
        device.malloc(GIB)
        device.free_all()
        assert device.in_use == 0
        assert device.live_allocations == 0

    def test_can_allocate(self, small_device):
        assert small_device.can_allocate(32 * MIB)
        assert not small_device.can_allocate(65 * MIB)


class TestDevicePresets:
    def test_a800(self):
        assert a800_80gb().capacity == 80 * GIB

    def test_h200(self):
        assert h200_141gb().capacity == 141 * GIB

    def test_mi210(self):
        assert mi210_64gb().capacity == 64 * GIB


class TestVirtualMemoryManager:
    def test_create_handle_charges_device(self, device):
        vmm = VirtualMemoryManager(device)
        vmm.create_handle()
        assert device.in_use == vmm.granule

    def test_handle_rounding(self, device):
        vmm = VirtualMemoryManager(device)
        handle = vmm.create_handle(3 * MIB)
        assert handle.size == 4 * MIB

    def test_release_handle_returns_memory(self, device):
        vmm = VirtualMemoryManager(device)
        handle = vmm.create_handle()
        vmm.release_handle(handle)
        assert device.in_use == 0

    def test_release_unknown_handle_raises(self, device):
        vmm = VirtualMemoryManager(device)
        handle = vmm.create_handle()
        vmm.release_handle(handle)
        with pytest.raises(InvalidAddressError):
            vmm.release_handle(handle)

    def test_map_unmap_cycle(self, device):
        vmm = VirtualMemoryManager(device)
        vrange = vmm.reserve_range(8 * MIB)
        handle = vmm.create_handle()
        vmm.map(vrange.start, handle)
        assert vmm.mapped_bytes == vmm.granule
        returned = vmm.unmap(vrange.start)
        assert returned is handle
        assert vmm.mapped_bytes == 0

    def test_map_outside_range_rejected(self, device):
        vmm = VirtualMemoryManager(device)
        handle = vmm.create_handle()
        with pytest.raises(InvalidAddressError):
            vmm.map(vmm.granule, handle)

    def test_map_twice_rejected(self, device):
        vmm = VirtualMemoryManager(device)
        vrange = vmm.reserve_range(8 * MIB)
        handle = vmm.create_handle()
        other = vmm.create_handle()
        vmm.map(vrange.start, handle)
        with pytest.raises(InvalidAddressError):
            vmm.map(vrange.start, other)

    def test_release_mapped_handle_rejected(self, device):
        vmm = VirtualMemoryManager(device)
        vrange = vmm.reserve_range(8 * MIB)
        handle = vmm.create_handle()
        vmm.map(vrange.start, handle)
        with pytest.raises(InvalidAddressError):
            vmm.release_handle(handle)

    def test_handle_mapped_twice_stays_unreleasable_until_both_unmapped(self, device):
        """Stitching maps one granule at a second address; the O(1) check counts both."""
        vmm = VirtualMemoryManager(device)
        vrange = vmm.reserve_range(8 * MIB)
        handle = vmm.create_handle()
        vmm.map(vrange.start, handle)
        vmm.map(vrange.start + vmm.granule, handle)
        vmm.unmap(vrange.start)
        with pytest.raises(InvalidAddressError, match="still mapped; unmap it first"):
            vmm.release_handle(handle)
        vmm.unmap(vrange.start + vmm.granule)
        vmm.release_handle(handle)
        assert device.in_use == 0

    def test_release_does_not_scan_the_mappings(self, device):
        """Releasing one handle costs the same with 2 or 2000 other granules mapped."""
        vmm = VirtualMemoryManager(device)
        vrange = vmm.reserve_range(8 * 1024 * MIB)
        vmm.map_new_granules(vrange.start, 2000)

        class NoScan(dict):
            def values(self):
                raise AssertionError("release_handle walked every mapping")

        vmm._mappings = NoScan(vmm._mappings)
        loose = vmm.create_handle()
        vmm.release_handle(loose)
        mapped = vmm.unmap(vrange.start)
        vmm.release_handle(mapped)
        assert vmm.live_handles == 1999

    def test_map_new_granules_equals_the_per_granule_calls(self):
        def fresh():
            device = Device(name="pair", capacity=16 * MIB)
            vmm = VirtualMemoryManager(device)
            return device, vmm, vmm.reserve_range(64 * MIB)

        device_a, vmm_a, range_a = fresh()
        handles_a = []
        for index in range(5):
            handle = vmm_a.create_handle()
            vmm_a.map(range_a.start + index * vmm_a.granule, handle)
            handles_a.append(handle)
        device_b, vmm_b, range_b = fresh()
        handles_b, oom = vmm_b.map_new_granules(range_b.start, 5)
        assert oom is None
        assert handles_b == handles_a  # same ids, sizes and backing addresses
        assert vmm_b.stats == vmm_a.stats
        assert device_b.stats == device_a.stats
        assert vmm_b.mapped_bytes == vmm_a.mapped_bytes == 5 * vmm_a.granule
        for index, handle in enumerate(handles_b):
            assert vmm_b.unmap(range_b.start + index * vmm_b.granule) is handle

    def test_map_new_granules_stops_where_the_device_runs_dry(self):
        device = Device(name="dry", capacity=6 * MIB)
        vmm = VirtualMemoryManager(device)
        vrange = vmm.reserve_range(64 * MIB)
        handles, oom = vmm.map_new_granules(vrange.start, 5)
        assert len(handles) == 3 and isinstance(oom, OutOfMemoryError)
        assert oom.requested == vmm.granule and oom.in_use == 6 * MIB
        assert (device.stats.malloc_calls, device.stats.failed_mallocs) == (4, 1)
        assert (vmm.stats.handles_created, vmm.stats.map_calls) == (3, 3)
        assert vmm.mapped_bytes == device.in_use == 6 * MIB

    def test_map_new_granules_validates_the_whole_run_once(self, device):
        vmm = VirtualMemoryManager(device)
        vrange = vmm.reserve_range(8 * MIB)
        with pytest.raises(InvalidAddressError, match="not granule-aligned"):
            vmm.map_new_granules(vrange.start + 1, 1)
        with pytest.raises(InvalidAddressError, match="outside every reserved range"):
            vmm.map_new_granules(vrange.start, 5)  # one granule past the end
        with pytest.raises(InvalidAddressError, match="outside every reserved range"):
            vmm.map_new_granules(vrange.end + vmm.granule, 1)  # in the guard gap
        assert device.in_use == 0 and vmm.stats.map_calls == 0
        vmm.map_new_granules(vrange.start + vmm.granule, 1)
        with pytest.raises(InvalidAddressError, match="already mapped"):
            vmm.map_new_granules(vrange.start, 2)
        # The granule mapped before the collision is on the books.
        assert vmm.stats.handles_created == vmm.stats.map_calls == vmm.live_handles == 2

    def test_handle_creation_oom_propagates(self, small_device):
        vmm = VirtualMemoryManager(small_device)
        with pytest.raises(OutOfMemoryError):
            for _ in range(64):
                vmm.create_handle()

    def test_op_counters(self, device):
        vmm = VirtualMemoryManager(device)
        vrange = vmm.reserve_range(8 * MIB)
        handle = vmm.create_handle()
        vmm.map(vrange.start, handle)
        vmm.unmap(vrange.start)
        assert vmm.stats.total_ops == 4  # reserve + create + map + unmap

    def test_release_all(self, device):
        vmm = VirtualMemoryManager(device)
        vrange = vmm.reserve_range(16 * MIB)
        for index in range(3):
            handle = vmm.create_handle()
            vmm.map(vrange.start + index * vmm.granule, handle)
        vmm.release_all()
        assert device.in_use == 0
        assert vmm.live_handles == 0
