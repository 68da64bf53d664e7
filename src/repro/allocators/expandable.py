"""PyTorch ``expandable_segments:True`` allocator.

Instead of carving fixed-size segments out of ``cudaMalloc`` allocations, the
expandable-segments mode reserves one huge *virtual* address range per pool
and maps 2 MiB physical granules into it on demand (CUDA VMM API).  A segment
can therefore grow in place instead of forcing a brand-new segment when a
request does not fit, which removes most segment-level fragmentation.  The
costs are (a) physical memory is handled at 2 MiB granularity and (b) every
grow/shrink is a driver VMM call -- the paper measures noticeable throughput
loss in recomputation-heavy and MoE workloads from exactly these calls.

The simulation models each pool as a single expandable arena:

* live allocations are carved best-fit out of the arena's free space;
* if nothing fits, the arena grows at its tail by whole granules;
* if the device cannot supply granules, free granule-aligned regions are
  unmapped (returned to the device) and the growth is retried;
* reserved bytes = currently mapped physical bytes.

What a replayed event costs here.  An event builds no object beyond its
placement record (the pool name and two ints): rounding and the pool choice
are inline, :meth:`IntervalSet.carve` compares ints and returns the start
address, and the interval touching the tail is one bisect
(:meth:`IntervalSet.length_ending_at`).  A :class:`Placement` is built only
when the public :meth:`allocate` asks for one.  No object is kept per
granule: the arena's ``mapped`` and ``free`` interval sets are the only
record of which granules exist.  A growth run is one
:meth:`VirtualMemoryManager.map_run` (one range check, one
:meth:`Device.malloc_run`) and one splice per set; a reclaim unmaps each free
interval's granule-aligned core as one :meth:`~VirtualMemoryManager.unmap_run`.
The counters still see every granule individually -- ``vmm_ops``,
``VmmStats`` and ``Device.stats`` advance per granule, exactly as one driver
call per granule would -- because they feed :meth:`overhead_seconds` and the
paper's throughput comparison.  The free search is linear in the number of
free intervals (about a dozen per arena on the paper's MoE workload).

Each arena reserves ``4 x`` the device capacity of virtual space once, and
reclaimed virtual space is never mapped again: the tail only moves up.  A
growth that would run past the end of the range is an
:class:`OutOfMemoryError`, like any other growth the device cannot back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.allocators.base import AllocationHints, Allocator, Placement
from repro.core.intervals import IntervalSet
from repro.gpu.device import Device, MIB, align_up
from repro.gpu.errors import OutOfMemoryError
from repro.gpu.virtual_memory import DEFAULT_GRANULE, VirtualMemoryManager

#: Requests at or below this size go to the small arena (matches the caching
#: allocator's small/large split so comparisons are apples-to-apples).
SMALL_POOL_THRESHOLD = 1 * MIB

#: Modelled latency of one VMM map/unmap operation.
VMM_OP_SECONDS = 2e-3


@dataclass
class ExpandableSegmentsConfig:
    """Policy knobs for the expandable-segments allocator."""

    granule: int = DEFAULT_GRANULE
    small_pool_threshold: int = SMALL_POOL_THRESHOLD
    min_block_size: int = 512
    label: str = "torch_es"


@dataclass
class _Arena:
    """One expandable segment: a virtual range with granules mapped on demand."""

    pool: str
    virtual_start: int
    virtual_size: int  # bytes of reserved virtual range
    mapped: IntervalSet = field(default_factory=IntervalSet)  # mapped virtual space
    free: IntervalSet = field(default_factory=IntervalSet)    # mapped and unallocated
    tail: int = 0  # first never-mapped offset (the growth point)


class ExpandableSegmentsAllocator(Allocator):
    """Virtual-memory backed allocator emulating PyTorch expandable segments."""

    name = "torch_es"

    def __init__(self, device: Device, config: ExpandableSegmentsConfig | None = None):
        super().__init__()
        self.device = device
        self.config = config or ExpandableSegmentsConfig()
        self.name = self.config.label
        self.vmm = VirtualMemoryManager(device, granule=self.config.granule)
        self._arenas: dict[str, _Arena] = {}
        self._placements: dict[int, tuple[str, int, int]] = {}  # req_id -> (pool, offset, size)

    def placement(self, req_id: int) -> Placement:
        pool, offset, rounded = self._placements[req_id]
        return Placement(pool=f"es:{pool}", address=offset, size=rounded)

    def arena(self, pool: str) -> _Arena:
        """Return (creating on first use) the arena backing ``pool``."""
        if pool not in self._arenas:
            # Reserve an effectively unbounded virtual range for the arena.
            vrange = self.vmm.reserve_range(4 * self.device.capacity)
            self._arenas[pool] = _Arena(pool, vrange.start, vrange.size)
        return self._arenas[pool]

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def _do_allocate(self, req_id: int, size: int, hints: AllocationHints) -> None:
        """Round to the block size, pick the pool, and carve best-fit (growing on a miss)."""
        config = self.config
        granule = config.min_block_size
        rounded = (size + granule - 1) // granule * granule
        pool = "small" if rounded <= config.small_pool_threshold else "large"
        arena = self._arenas.get(pool) or self.arena(pool)
        start = arena.free.carve(rounded)
        if start is None:
            self.stats.cache_misses += 1
            self._grow(arena, rounded)
            start = arena.free.carve(rounded)
            if start is None:
                # Reclaim under memory pressure may have punched a hole into
                # the tail region we were counting on; grow by the full
                # request size so the new tail run is contiguous.
                self._grow(arena, rounded, count_tail_free=False)
                start = arena.free.carve(rounded)
            if start is None:  # pragma: no cover - growth guarantees a fit
                raise OutOfMemoryError(rounded, self.device.usable_capacity, self.device.in_use)
        else:
            self.stats.cache_hits += 1
        self._placements[req_id] = (pool, start, rounded)

    def _grow(self, arena: _Arena, rounded: int, *, count_tail_free: bool = True) -> None:
        """Map enough granules at the arena tail to fit a ``rounded`` request.

        When the device runs dry mid-run, idle granules are unmapped and the
        run continues; the granules mapped so far are committed to the arena
        first, so the reclaim sees (and may take back) those too.
        """
        granule = self.config.granule
        # Free space already touching the tail still counts toward the request.
        tail_free = arena.free.length_ending_at(arena.tail) if count_tail_free else 0
        remaining = align_up(max(rounded - tail_free, 0), granule) // granule
        if arena.tail + remaining * granule > arena.virtual_size:
            raise OutOfMemoryError(
                rounded,
                self.device.usable_capacity,
                self.device.in_use,
                f"out of memory: tried to allocate {rounded} bytes, but the {arena.pool} "
                f"arena has grown through its {arena.virtual_size}-byte virtual range",
            )
        while remaining:
            granted, oom = self.vmm.map_run(arena.virtual_start + arena.tail, remaining)
            self._commit_run(arena, granted)
            remaining -= granted
            if oom is not None and self._reclaim_free_granules() == 0:
                raise oom

    def _commit_run(self, arena: _Arena, count: int) -> None:
        """Account ``count`` granules just mapped at the arena tail: one splice per set."""
        if not count:
            return
        start = arena.tail
        end = start + self.config.granule * count
        arena.mapped.add(start, end)
        arena.free.add(start, end)
        arena.tail = end
        self._reserved_bytes += end - start
        self.stats.vmm_ops += 2 * count  # one create + one map per granule

    def _reclaim_free_granules(self) -> int:
        """Unmap granules that are entirely free and return them to the device.

        Each free interval's granule-aligned core is one run.  Returns the
        number of granules reclaimed.  Mirrors expandable segments' behaviour
        of releasing physical memory only under pressure.
        """
        granule = self.config.granule
        reclaimed = 0
        for arena in self._arenas.values():
            for interval in list(arena.free):
                start = align_up(interval.start, granule)
                end = interval.end - interval.end % granule
                if end <= start:
                    continue
                count = (end - start) // granule
                self.vmm.unmap_run(arena.virtual_start + start, count)
                arena.mapped.remove(start, end)
                arena.free.remove(start, end)
                self._reserved_bytes -= end - start
                self.stats.vmm_ops += 2 * count  # one unmap + one release per granule
                reclaimed += count
        return reclaimed

    # ------------------------------------------------------------------ #
    # Free
    # ------------------------------------------------------------------ #
    def _do_free(self, req_id: int) -> None:
        pool, offset, rounded = self._placements.pop(req_id)
        arena = self._arenas[pool]
        arena.free.add(offset, offset + rounded)

    def overhead_seconds(self) -> float:
        return self.stats.vmm_ops * VMM_OP_SECONDS
