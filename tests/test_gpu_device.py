"""Tests for the simulated GPU device and the VMM driver API."""

from __future__ import annotations

import pytest

from repro.gpu.device import Device, GIB, MIB, a800_80gb, align_up
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


def _live(device: Device) -> int:
    """Outstanding driver allocations: objects plus counted run granules."""
    return len(device._allocations) + device._run_allocations


class TestDevicePresets:
    def test_a800(self):
        assert a800_80gb().capacity == 80 * GIB


class TestVirtualMemoryManager:
    def test_map_run_charges_device(self, device):
        vmm = VirtualMemoryManager(device)
        vrange = vmm.reserve_range(8 * MIB)
        assert vmm.map_run(vrange.start, 1) == (1, None)
        assert device.in_use == vmm.granule

    def test_reserve_range_rounds_to_granules(self, device):
        vmm = VirtualMemoryManager(device)
        assert vmm.reserve_range(3 * MIB).size == 4 * MIB

    def test_map_unmap_cycle_returns_memory(self, device):
        vmm = VirtualMemoryManager(device)
        vrange = vmm.reserve_range(16 * MIB)
        vmm.map_run(vrange.start, 3)
        assert device.in_use == 3 * vmm.granule
        vmm.unmap_run(vrange.start + vmm.granule, 2)
        assert device.in_use == vmm.granule
        vmm.unmap_run(vrange.start, 1)
        assert device.in_use == 0
        assert _live(device) == 0

    def test_unmapping_more_than_was_mapped_raises(self, device):
        vmm = VirtualMemoryManager(device)
        vrange = vmm.reserve_range(8 * MIB)
        vmm.map_run(vrange.start, 1)
        vmm.unmap_run(vrange.start, 1)
        with pytest.raises(DoubleFreeError):
            vmm.unmap_run(vrange.start, 1)

    def test_map_outside_range_rejected(self, device):
        vmm = VirtualMemoryManager(device)
        with pytest.raises(InvalidAddressError):
            vmm.map_run(vmm.granule, 1)

    def test_map_run_stops_where_the_device_runs_dry(self):
        device = Device(name="dry", capacity=6 * MIB)
        vmm = VirtualMemoryManager(device)
        vrange = vmm.reserve_range(64 * MIB)
        granted, oom = vmm.map_run(vrange.start, 5)
        assert granted == 3 and isinstance(oom, OutOfMemoryError)
        assert oom.requested == vmm.granule and oom.in_use == 6 * MIB
        assert (device.stats.malloc_calls, device.stats.failed_mallocs) == (4, 1)
        assert (vmm.stats.handles_created, vmm.stats.map_calls) == (3, 3)
        assert device.in_use == 6 * MIB

    def test_map_run_validates_the_whole_run_once(self, device):
        vmm = VirtualMemoryManager(device)
        vrange = vmm.reserve_range(8 * MIB)
        with pytest.raises(InvalidAddressError, match="not granule-aligned"):
            vmm.map_run(vrange.start + 1, 1)
        with pytest.raises(InvalidAddressError, match="outside every reserved range"):
            vmm.map_run(vrange.start, 5)  # one granule past the end
        with pytest.raises(InvalidAddressError, match="outside every reserved range"):
            vmm.map_run(vrange.end + vmm.granule, 1)  # in the guard gap
        with pytest.raises(InvalidAddressError, match="outside every reserved range"):
            vmm.unmap_run(vrange.start + vmm.granule, 4)
        assert device.in_use == 0 and vmm.stats.map_calls == vmm.stats.unmap_calls == 0

    def test_map_run_past_capacity_reports_the_oom(self, small_device):
        vmm = VirtualMemoryManager(small_device)
        vrange = vmm.reserve_range(256 * MIB)
        granted, oom = vmm.map_run(vrange.start, 64)
        assert granted * vmm.granule <= small_device.usable_capacity
        assert isinstance(oom, OutOfMemoryError)

    def test_op_counters(self, device):
        vmm = VirtualMemoryManager(device)
        vrange = vmm.reserve_range(8 * MIB)
        vmm.map_run(vrange.start, 1)
        vmm.unmap_run(vrange.start, 1)
        stats = vmm.stats
        assert (stats.ranges_reserved, stats.handles_created, stats.map_calls) == (1, 1, 1)
        assert (stats.unmap_calls, stats.handles_released) == (1, 1)


#: name -> (device MiB, MiB already held by a plain malloc, granules asked for)
RUN_CASES = {
    "fits": (16, 2, 5),
    "fits-exactly": (12, 2, 5),
    "cut-short-mid-run": (9, 2, 5),
    "device-already-full": (4, 4, 3),
    "empty-run": (8, 0, 0),
}


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_a_run_of_k_granules_equals_k_per_granule_calls(case):
    """``map_run`` / ``unmap_run`` (over ``malloc_run`` / ``free_run``) of k
    granules leave the device exactly as k ``malloc`` / ``free`` calls do, and
    count one create + map (unmap + release) per granule."""
    capacity, held, count = RUN_CASES[case]
    granule = 2 * MIB

    def fresh() -> Device:
        device = Device(name="run", capacity=capacity * MIB)
        if held:
            device.malloc(held * MIB)
        return device

    oracle = fresh()
    granules, oracle_oom = [], None
    for _ in range(count):
        try:
            granules.append(oracle.malloc(granule))
        except OutOfMemoryError as oom:
            oracle_oom = oom
            break

    device = fresh()
    vmm = VirtualMemoryManager(device, granule)
    vrange = vmm.reserve_range(count * granule)
    granted, oom = vmm.map_run(vrange.start, count)
    assert granted == len(granules)
    assert device.stats == oracle.stats
    assert (device.in_use, _live(device)) == (oracle.in_use, _live(oracle))
    if oracle_oom is None:
        assert oom is None
    else:
        assert (oom.requested, oom.capacity, oom.in_use) == (
            oracle_oom.requested, oracle_oom.capacity, oracle_oom.in_use
        )
    assert (vmm.stats.handles_created, vmm.stats.map_calls) == (granted, granted)

    for allocation in granules:
        oracle.free(allocation)
    vmm.unmap_run(vrange.start, granted)
    assert device.stats == oracle.stats
    assert (device.in_use, _live(device)) == (oracle.in_use, _live(oracle))
    assert (vmm.stats.unmap_calls, vmm.stats.handles_released) == (granted, granted)
    assert device.in_use == oracle.in_use == held * MIB
    # The address counter advanced by exactly the granted allocations.
    assert device.malloc(0).address == oracle.malloc(0).address
