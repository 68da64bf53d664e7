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
throughput model can charge for them.  Granules are created and mapped, and
unmapped and released, in *runs* of back-to-back granules at one virtual
address (:meth:`VirtualMemoryManager.map_run` / :meth:`~VirtualMemoryManager.unmap_run`):
the counters advance per granule, but no object is kept per granule -- the
caller's own address bookkeeping says which granules are mapped.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.gpu.device import Device, MIB, align_up
from repro.gpu.errors import InvalidAddressError, OutOfMemoryError

#: Default physical granule size used by CUDA VMM (and by PyTorch expandable
#: segments / GMLake).
DEFAULT_GRANULE = 2 * MIB


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


@dataclass
class VmmStats:
    """Counters for VMM driver operations (used by the throughput model)."""

    handles_created: int = 0
    handles_released: int = 0
    ranges_reserved: int = 0
    map_calls: int = 0
    unmap_calls: int = 0


class VirtualMemoryManager:
    """Driver-level virtual memory manager bound to one :class:`Device`.

    Physical memory is charged against the device when a granule is created
    and returned when it is released, one device allocation per granule.  A
    granule is always created together with its mapping and released
    together with its unmapping (the only pattern the allocators issue), so
    mapped bytes and physical bytes are the same number.
    """

    def __init__(self, device: Device, granule: int = DEFAULT_GRANULE):
        if granule <= 0:
            raise ValueError(f"granule must be positive, got {granule}")
        self.device = device
        self.granule = int(granule)
        self.stats = VmmStats()
        self._virtual_cursor = 1 << 40  # virtual addresses live far above physical ones
        #: Reserved ranges in address order (the cursor only moves up) and
        #: their starts, for the bisect in :meth:`_check_mappable`.
        self._ranges: list[VirtualRange] = []
        self._range_starts: list[int] = []

    # ------------------------------------------------------------------ #
    # Virtual address space
    # ------------------------------------------------------------------ #
    def reserve_range(self, size: int) -> VirtualRange:
        """Reserve a contiguous virtual address range (``cuMemAddressReserve``).

        Reservations never fail and never consume physical memory.
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

    # ------------------------------------------------------------------ #
    # Granule runs
    # ------------------------------------------------------------------ #
    def map_run(self, virtual_address: int, count: int) -> tuple[int, OutOfMemoryError | None]:
        """Create ``count`` granules and map them back to back from ``virtual_address``.

        ``count`` x (``cuMemCreate`` + ``cuMemMap``): the target range is
        validated once, and the device and VMM counters advance per granule.
        The run stops at the first granule the device cannot supply; the
        number mapped up to there is returned together with the device's
        error (``None`` when the run completed), so the caller can release
        memory and ask for the rest or re-raise.
        """
        granule = self.granule
        self._check_mappable(virtual_address, count * granule)
        granted, error = self.device.malloc_run(granule, count)
        self.stats.handles_created += granted
        self.stats.map_calls += granted
        return granted, error

    def unmap_run(self, virtual_address: int, count: int) -> None:
        """Unmap and release ``count`` granules mapped back to back from ``virtual_address``.

        ``count`` x (``cuMemUnmap`` + ``cuMemRelease``), returning the
        granules' physical memory to the device.
        """
        granule = self.granule
        self._check_mappable(virtual_address, count * granule)
        self.device.free_run(granule, count)
        self.stats.unmap_calls += count
        self.stats.handles_released += count
