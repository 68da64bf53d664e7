"""Simulated CUDA virtual-memory-management (VMM) driver API.

PyTorch's *expandable segments* allocator and GMLake both build on the CUDA
VMM API: physical memory is created in fixed-size granules (``cuMemCreate``),
a contiguous *virtual* address range is reserved (``cuMemAddressReserve``) and
granules are mapped into it on demand (``cuMemMap``/``cuMemSetAccess``).  The
important properties for a memory-efficiency study are:

* physical memory is consumed granule-by-granule (2 MiB by default), so a
  virtual segment can grow without re-allocating or copying;
* non-contiguous physical granules can back a contiguous virtual range, which
  is exactly GMLake's "virtual memory stitching";
* every map/unmap is a driver call with a non-trivial latency (the paper
  measures ~30 ms per operation under MoE churn), so the number of VMM
  operations matters for end-to-end throughput.

The simulation therefore tracks physical consumption on the underlying
:class:`~repro.gpu.device.Device` and counts every VMM operation so the
throughput model can charge for them.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

from repro.gpu.device import Device, MIB, PhysicalAllocation, align_up
from repro.gpu.errors import InvalidAddressError, OutOfMemoryError

#: Default physical granule size used by CUDA VMM (and by PyTorch expandable
#: segments / GMLake).
DEFAULT_GRANULE = 2 * MIB


@dataclass(frozen=True)
class PhysicalHandle:
    """A granule of physical memory created through the VMM API."""

    handle_id: int
    size: int
    backing: PhysicalAllocation


@dataclass(frozen=True)
class VirtualRange:
    """A reserved range of virtual address space (not yet backed by memory)."""

    start: int
    size: int

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, address: int, size: int = 1) -> bool:
        """Return True when ``[address, address + size)`` lies inside the range."""
        return self.start <= address and address + size <= self.end


@dataclass(frozen=True)
class VirtualMapping:
    """A physical handle mapped at a particular virtual address."""

    virtual_address: int
    handle: PhysicalHandle

    @property
    def end(self) -> int:
        return self.virtual_address + self.handle.size


@dataclass
class VmmStats:
    """Counters for VMM driver operations (used by the throughput model)."""

    handles_created: int = 0
    handles_released: int = 0
    ranges_reserved: int = 0
    map_calls: int = 0
    unmap_calls: int = 0

    @property
    def total_ops(self) -> int:
        """Total driver-level VMM operations issued."""
        return (
            self.handles_created
            + self.handles_released
            + self.ranges_reserved
            + self.map_calls
            + self.unmap_calls
        )


class VirtualMemoryManager:
    """Driver-level virtual memory manager bound to one :class:`Device`.

    The manager owns all physical handles it creates; physical memory is
    charged against the device at handle-creation time and returned at
    handle-release time, independent of whether the handle is currently
    mapped (mirroring CUDA VMM semantics).
    """

    def __init__(self, device: Device, granule: int = DEFAULT_GRANULE):
        if granule <= 0:
            raise ValueError(f"granule must be positive, got {granule}")
        self.device = device
        self.granule = int(granule)
        self.stats = VmmStats()
        self._handle_ids = itertools.count(1)
        self._virtual_cursor = 1 << 40  # virtual addresses live far above physical ones
        self._handles: dict[int, PhysicalHandle] = {}
        self._mappings: dict[int, PhysicalHandle] = {}  # keyed by virtual address
        #: handle id -> number of virtual addresses it is mapped at.
        self._map_counts: dict[int, int] = {}
        #: Reserved ranges in address order (the cursor only moves up) and
        #: their starts, for the bisect in :meth:`_check_reserved`.
        self._ranges: list[VirtualRange] = []
        self._range_starts: list[int] = []

    # ------------------------------------------------------------------ #
    # Physical handles
    # ------------------------------------------------------------------ #
    def create_handle(self, size: int | None = None) -> PhysicalHandle:
        """Create a physical granule (``cuMemCreate``).

        ``size`` defaults to the manager's granule and is rounded up to a
        multiple of it, exactly as the CUDA driver requires.
        """
        size = self.granule if size is None else align_up(size, self.granule)
        backing = self.device.malloc(size)  # may raise OutOfMemoryError
        handle = PhysicalHandle(handle_id=next(self._handle_ids), size=size, backing=backing)
        self._handles[handle.handle_id] = handle
        self.stats.handles_created += 1
        return handle

    def release_handle(self, handle: PhysicalHandle) -> None:
        """Release a physical granule (``cuMemRelease``)."""
        if handle.handle_id not in self._handles:
            raise InvalidAddressError(f"unknown physical handle {handle.handle_id}")
        if handle.handle_id in self._map_counts:
            raise InvalidAddressError(
                f"physical handle {handle.handle_id} is still mapped; unmap it first"
            )
        del self._handles[handle.handle_id]
        self.device.free(handle.backing)
        self.stats.handles_released += 1

    # ------------------------------------------------------------------ #
    # Virtual address space
    # ------------------------------------------------------------------ #
    def reserve_range(self, size: int) -> VirtualRange:
        """Reserve a contiguous virtual address range (``cuMemAddressReserve``).

        Virtual address space is effectively unlimited; reservations never
        fail and never consume physical memory.
        """
        size = align_up(size, self.granule)
        vrange = VirtualRange(start=self._virtual_cursor, size=size)
        # Leave an unmapped guard gap between reservations so bugs that walk
        # off the end of a range are caught by ``contains`` checks.
        self._virtual_cursor += size + self.granule
        self._ranges.append(vrange)
        self._range_starts.append(vrange.start)
        self.stats.ranges_reserved += 1
        return vrange

    def _check_mappable(self, virtual_address: int, size: int) -> None:
        """Raise unless ``[virtual_address, +size)`` is aligned and inside one reserved range."""
        if virtual_address % self.granule:
            raise InvalidAddressError(
                f"virtual address {virtual_address:#x} is not granule-aligned"
            )
        index = bisect.bisect_right(self._range_starts, virtual_address) - 1
        if index < 0 or not self._ranges[index].contains(virtual_address, size):
            raise InvalidAddressError(
                f"virtual address {virtual_address:#x} is outside every reserved range"
            )

    def map(self, virtual_address: int, handle: PhysicalHandle) -> VirtualMapping:
        """Map a physical handle at a virtual address (``cuMemMap``)."""
        if handle.handle_id not in self._handles:
            raise InvalidAddressError(f"unknown physical handle {handle.handle_id}")
        self._check_mappable(virtual_address, handle.size)
        if virtual_address in self._mappings:
            raise InvalidAddressError(f"virtual address {virtual_address:#x} is already mapped")
        self._mappings[virtual_address] = handle
        self._map_counts[handle.handle_id] = self._map_counts.get(handle.handle_id, 0) + 1
        self.stats.map_calls += 1
        return VirtualMapping(virtual_address=virtual_address, handle=handle)

    def map_new_granules(
        self, virtual_address: int, count: int
    ) -> tuple[list[PhysicalHandle], OutOfMemoryError | None]:
        """Create ``count`` granules and map them back to back from ``virtual_address``.

        The run-granular form of ``count`` x (:meth:`create_handle` +
        :meth:`map`) that a growing segment issues: the target range is
        validated once for the whole run, and handle ids, device and VMM
        counters advance exactly as under the per-granule calls.  The run
        stops at the first granule the device cannot supply; the handles
        mapped up to there are returned (in address order) together with the
        device's error, ``None`` when the run completed, so the caller can
        release memory and ask for the rest or re-raise.
        """
        granule = self.granule
        self._check_mappable(virtual_address, count * granule)
        malloc = self.device.malloc
        handles = self._handles
        mappings = self._mappings
        map_counts = self._map_counts
        run: list[PhysicalHandle] = []
        error = None
        try:
            for _ in range(count):
                if virtual_address in mappings:
                    raise InvalidAddressError(
                        f"virtual address {virtual_address:#x} is already mapped"
                    )
                try:
                    backing = malloc(granule)
                except OutOfMemoryError as oom:
                    error = oom
                    break
                handle = PhysicalHandle(next(self._handle_ids), granule, backing)
                handles[handle.handle_id] = handle
                mappings[virtual_address] = handle
                map_counts[handle.handle_id] = 1
                run.append(handle)
                virtual_address += granule
        finally:
            self.stats.handles_created += len(run)
            self.stats.map_calls += len(run)
        return run, error

    def unmap(self, virtual_address: int) -> PhysicalHandle:
        """Unmap the granule at ``virtual_address`` (``cuMemUnmap``).

        Returns the handle that was mapped there so callers can either re-map
        it elsewhere (stitching) or release it.
        """
        handle = self._mappings.pop(virtual_address, None)
        if handle is None:
            raise InvalidAddressError(f"virtual address {virtual_address:#x} is not mapped")
        remaining = self._map_counts[handle.handle_id] - 1
        if remaining:
            self._map_counts[handle.handle_id] = remaining
        else:
            del self._map_counts[handle.handle_id]
        self.stats.unmap_calls += 1
        return handle

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def mapped_bytes(self) -> int:
        """Total physical bytes currently mapped into virtual space."""
        return sum(handle.size for handle in self._mappings.values())

    @property
    def physical_bytes(self) -> int:
        """Total physical bytes held by live handles (mapped or not)."""
        return sum(h.size for h in self._handles.values())

    @property
    def live_handles(self) -> int:
        return len(self._handles)

    def release_all(self) -> None:
        """Unmap and release everything (teardown helper for experiments)."""
        self._mappings.clear()
        self._map_counts.clear()
        for handle in list(self._handles.values()):
            del self._handles[handle.handle_id]
            self.device.free(handle.backing)
            self.stats.handles_released += 1
