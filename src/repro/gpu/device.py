"""Simulated GPU memory device.

The device models the physical GPU memory that ``cudaMalloc``/``cudaFree``
(or ``hipMalloc``/``hipFree``) manage.  Because real driver allocations are
served from a dedicated heap and are effectively never fragmented at the sizes
deep-learning allocators request (they ask for large, granule-aligned
segments), the device only enforces *capacity*: an allocation succeeds as long
as the total outstanding bytes fit on the device.

The device also keeps counters for every driver call so that higher layers can
model the latency cost of talking to the driver (native profiling runs at
10-30% of caching-allocator speed in the paper precisely because every tensor
allocation becomes a driver call).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.gpu.errors import DoubleFreeError, InvalidAddressError, OutOfMemoryError

#: Common byte-size constants used throughout the code base.
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Alignment of driver-level allocations (CUDA guarantees at least 256 B;
#: allocator-level granules are much larger).
DRIVER_ALIGNMENT = 512


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return ((int(value) + alignment - 1) // alignment) * alignment


@dataclass(frozen=True)
class PhysicalAllocation:
    """A live driver-level allocation on the device."""

    address: int
    size: int


@dataclass
class DeviceStats:
    """Counters describing driver-level activity on a device."""

    malloc_calls: int = 0
    free_calls: int = 0
    failed_mallocs: int = 0
    bytes_allocated_total: int = 0
    peak_in_use: int = 0


@dataclass
class Device:
    """A simulated GPU memory device.

    Parameters
    ----------
    name:
        Human-readable device name (e.g. ``"A800-80GB"``).
    capacity:
        Total device memory in bytes.
    reserved_overhead:
        Bytes unavailable to the framework (CUDA context, NCCL buffers,
        framework overhead).  Defaults to 0; experiments set this to model the
        usable fraction of each testbed GPU.
    """

    name: str
    capacity: int
    reserved_overhead: int = 0
    stats: DeviceStats = field(default_factory=DeviceStats)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"device capacity must be positive, got {self.capacity}")
        if not 0 <= self.reserved_overhead < self.capacity:
            raise ValueError(
                "reserved_overhead must be within [0, capacity): "
                f"{self.reserved_overhead} vs {self.capacity}"
            )
        self._allocations: dict[int, PhysicalAllocation] = {}
        #: Live allocations made by :meth:`malloc_run`, which are only counted.
        self._run_allocations = 0
        self._in_use = 0
        # Physical addresses are handed out monotonically.  Real devices reuse
        # addresses, but the simulation never compares physical addresses
        # across allocations, so monotonic assignment keeps the model simple
        # and collision-free.
        self._next_address = itertools.count(DRIVER_ALIGNMENT)

    # ------------------------------------------------------------------ #
    # Capacity accounting
    # ------------------------------------------------------------------ #
    @property
    def usable_capacity(self) -> int:
        """Bytes available to allocators after fixed overheads."""
        return self.capacity - self.reserved_overhead

    @property
    def in_use(self) -> int:
        """Bytes currently held by live driver allocations."""
        return self._in_use

    @property
    def free_bytes(self) -> int:
        """Bytes still available for new driver allocations."""
        return self.usable_capacity - self._in_use

    # ------------------------------------------------------------------ #
    # cudaMalloc / cudaFree analogues
    # ------------------------------------------------------------------ #
    def malloc(self, size: int) -> PhysicalAllocation:
        """Allocate ``size`` bytes of device memory.

        Raises :class:`OutOfMemoryError` when the device cannot satisfy the
        request.  Zero-byte allocations are legal and return a zero-sized
        allocation (mirroring ``cudaMalloc(0)`` returning success).
        """
        if size < 0:
            raise ValueError(f"allocation size must be non-negative, got {size}")
        stats = self.stats
        stats.malloc_calls += 1
        in_use = self._in_use
        usable = self.usable_capacity
        if size > usable - in_use:
            stats.failed_mallocs += 1
            raise OutOfMemoryError(size, usable, in_use)
        address = next(self._next_address) * DRIVER_ALIGNMENT
        allocation = PhysicalAllocation(address=address, size=int(size))
        self._allocations[address] = allocation
        self._in_use = in_use = in_use + allocation.size
        stats.bytes_allocated_total += allocation.size
        if in_use > stats.peak_in_use:
            stats.peak_in_use = in_use
        return allocation

    def free(self, allocation: PhysicalAllocation | int) -> None:
        """Free a previously returned allocation (by object or address)."""
        address = allocation.address if isinstance(allocation, PhysicalAllocation) else int(allocation)
        self.stats.free_calls += 1
        live = self._allocations.pop(address, None)
        if live is None:
            if address <= 0:
                raise InvalidAddressError(f"invalid address {address:#x}")
            raise DoubleFreeError(f"address {address:#x} is not a live allocation")
        self._in_use -= live.size

    def malloc_run(self, size: int, count: int) -> tuple[int, OutOfMemoryError | None]:
        """``count`` back-to-back ``malloc(size)`` calls, as one call.

        Every counter, ``in_use``, the live-allocation count and the address
        counter advance exactly as under ``count`` calls to :meth:`malloc`,
        but no allocation object is kept: the caller (a VMM granule run)
        knows where its granules are and returns them with :meth:`free_run`.
        The run stops at the first allocation that does not fit; it returns
        how many were granted and the error that call raised (``None`` when
        the run completed).
        """
        if size <= 0 or count < 0:
            raise ValueError(f"a run needs a positive size and a count >= 0, got {size} x {count}")
        stats = self.stats
        usable = self.usable_capacity
        granted = min(count, (usable - self._in_use) // size)
        if granted:
            first = next(self._next_address)
            self._next_address = itertools.count(first + granted)
            self._run_allocations += granted
            self._in_use = in_use = self._in_use + granted * size
            stats.malloc_calls += granted
            stats.bytes_allocated_total += granted * size
            if in_use > stats.peak_in_use:
                stats.peak_in_use = in_use
        if granted == count:
            return granted, None
        stats.malloc_calls += 1
        stats.failed_mallocs += 1
        return granted, OutOfMemoryError(size, usable, self._in_use)

    def free_run(self, size: int, count: int) -> None:
        """Free ``count`` allocations of ``size`` bytes made by :meth:`malloc_run`."""
        if count > self._run_allocations:
            raise DoubleFreeError(
                f"freeing {count} run allocations, {self._run_allocations} are live"
            )
        self.stats.free_calls += count
        self._run_allocations -= count
        self._in_use -= count * size

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Device(name={self.name!r}, capacity={self.capacity}, "
            f"in_use={self._in_use}, live={len(self._allocations) + self._run_allocations})"
        )


# ---------------------------------------------------------------------- #
# Testbed presets (capacities from the shared specs in repro.gpu.specs, the
# single source of truth for per-device constants)
# ---------------------------------------------------------------------- #
def device_from_spec(name: str, reserved_overhead: int = 0) -> Device:
    """Build a Device whose capacity comes from :data:`repro.gpu.specs.GPU_SPECS`."""
    from repro.gpu.specs import get_gpu

    spec = get_gpu(name)
    return Device(
        name=spec.name, capacity=spec.memory_gib * GIB, reserved_overhead=reserved_overhead
    )


def a800_80gb(reserved_overhead: int = 4 * GIB) -> Device:
    """NVIDIA A800-80GB as used on the paper's first testbed."""
    return device_from_spec("A800-80GB", reserved_overhead)
