"""Native allocator: one driver call per tensor.

Every allocation goes straight to ``cudaMalloc`` and every free to
``cudaFree``.  Reserved memory therefore equals allocated memory (no
fragmentation at the allocator level), which is why the paper's Allocation
Profiler runs in this mode: it can trace configurations that would OOM under
the caching allocator, and an OOM under the native allocator proves the
configuration is infeasible regardless of fragmentation (§8).

The price is speed -- each driver call costs on the order of a tenth of a
millisecond, so profiling runs at 10-30% of normal training speed (Table 2).
"""

from __future__ import annotations

import itertools

from repro.allocators.base import AllocationHints, Allocator, Placement
from repro.gpu.device import DRIVER_ALIGNMENT, Device, PhysicalAllocation

#: Modelled latency of one cudaMalloc/cudaFree driver call.
DRIVER_CALL_SECONDS = 1e-4


class NativeAllocator(Allocator):
    """Pass-through allocator mapping every request to a driver allocation."""

    name = "native"

    def __init__(self, device: Device):
        super().__init__()
        self.device = device
        self._allocations: dict[int, PhysicalAllocation] = {}

    def placement(self, req_id: int) -> Placement:
        allocation = self._allocations[req_id]
        return Placement(pool="device", address=allocation.address, size=allocation.size)

    def _do_allocate(self, req_id: int, size: int, hints: AllocationHints) -> None:
        allocation = self.device.malloc(size)
        self.stats.device_malloc_calls += 1
        self._allocations[req_id] = allocation
        self._reserved_bytes += allocation.size

    def _do_free(self, req_id: int) -> None:
        allocation = self._allocations.pop(req_id)
        self._reserved_bytes -= allocation.size
        self.device.free(allocation)
        self.stats.device_free_calls += 1

    def overhead_seconds(self) -> float:
        calls = self.stats.device_malloc_calls + self.stats.device_free_calls
        return calls * DRIVER_CALL_SECONDS

    # ------------------------------------------------------------------ #
    # Batch replay
    # ------------------------------------------------------------------ #
    def batch_replay(self, trace, *, stop_on_oom: bool = True) -> int | None:
        """Replay a whole trace in one batched step.

        The native allocator is exactly batch-replayable: the device enforces
        only capacity (no placement, no size rounding) and hints are ignored,
        so the event loop's entire effect is determined by the trace's peak
        live bytes and alloc/free pairing -- both memoised on the trace's
        columns.  The replay succeeds without OOM iff the peak fits in the
        device's free bytes; in that case this method
        reconstructs the exact end state (live allocations with the addresses
        the sequential driver counter would have assigned, all device and
        allocator counters, both peaks) without executing per-event Python.

        Falls back (returns ``None``) whenever the loop could behave
        differently: a would-be OOM (per-event failure accounting), a reused
        or mismatched request id, a non-positive size (the loop raises), a
        subclass overriding the per-event behaviour, or an allocator/device
        that is not fresh.
        """
        if type(self) is not NativeAllocator:
            return None  # subclasses may change per-event behaviour
        device = self.device
        if (
            self._live_sizes
            or self.stats.alloc_calls
            or self.stats.free_calls
            or device.in_use
            or device.stats.malloc_calls
            or device.stats.free_calls
        ):
            return None  # mid-stream state: replay event by event
        columns = trace.columns
        num_events = columns.num_events
        if num_events == 0:
            return 0
        pairing = columns.pairing()
        if not pairing.ok:
            return None
        num_allocs = len(pairing.alloc_pos)
        num_frees = pairing.num_frees
        if num_allocs and pairing.min_alloc_size <= 0:
            return None  # the event loop raises ValueError on these
        peak = columns.peak_allocated_bytes()
        if peak > device.free_bytes:
            return None  # would OOM: the loop models the failure precisely

        # Reconstruct the exact end state of the sequential replay.  The
        # device's address counter hands the i-th malloc the address
        # (DRIVER_ALIGNMENT + i) * DRIVER_ALIGNMENT; surviving allocations
        # keep theirs, and the counter advances past every batched malloc.
        final_live = 0
        for ordinal, req_id, size in pairing.survivors:
            address = (DRIVER_ALIGNMENT + ordinal) * DRIVER_ALIGNMENT
            allocation = PhysicalAllocation(address=address, size=size)
            device._allocations[address] = allocation
            self._allocations[req_id] = allocation
            self._live_sizes[req_id] = size
            final_live += size
        device._next_address = itertools.count(DRIVER_ALIGNMENT + num_allocs)
        device._in_use = final_live
        device.stats.malloc_calls += num_allocs
        device.stats.free_calls += num_frees
        device.stats.bytes_allocated_total += pairing.allocated_bytes
        device.stats.peak_in_use = max(device.stats.peak_in_use, peak)
        self._allocated_bytes = final_live
        self._reserved_bytes = final_live  # the survivors' sizes
        self.stats.alloc_calls += num_allocs
        self.stats.free_calls += num_frees
        self.stats.device_malloc_calls += num_allocs
        self.stats.device_free_calls += num_frees
        self.stats.peak_allocated = max(self.stats.peak_allocated, peak)
        # reserved == allocated for the native allocator at every instant.
        self.stats.peak_reserved = max(self.stats.peak_reserved, peak)
        return num_events
