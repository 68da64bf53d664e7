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

What a replayed event costs here.  Up to 1.9.0 this allocator replayed at
2.4x the caching allocator's cost per event, none of it policy: best-fit
built a frozen ``Interval`` per free interval per request, growth spliced
both interval sets once per 2 MiB granule (two list inserts for what is one
contiguous run), and every growth walked all of ``arena.free`` to find the
interval touching the tail.  Now best-fit compares ints, the tail interval is
one bisect (:meth:`IntervalSet.length_ending_at`), and a growth run is
committed with one splice per set after
:meth:`VirtualMemoryManager.map_new_granules` has validated the target range
once.  What remains per granule is what the model is about: one device
allocation (capacity check, ``malloc_calls``), one physical handle and one
mapping entry, so that ``vmm_ops``, ``VmmStats``, ``Device.stats`` and the
reclaim path see every granule individually -- those counters feed
:meth:`overhead_seconds` and the paper's throughput comparison.  The free
search is still linear in the number of free intervals (a handful per arena
on the paper's workloads).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.allocators.base import AllocationHints, Allocator, Placement
from repro.core.intervals import IntervalSet
from repro.gpu.device import Device, MIB, align_up
from repro.gpu.errors import OutOfMemoryError
from repro.gpu.virtual_memory import DEFAULT_GRANULE, PhysicalHandle, VirtualMemoryManager

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

    def round_size(self, size: int) -> int:
        if size < self.min_block_size:
            return self.min_block_size
        return align_up(size, self.min_block_size)

    def pool_for(self, rounded: int) -> str:
        return "small" if rounded <= self.small_pool_threshold else "large"


@dataclass
class _Arena:
    """One expandable segment: a virtual range with granules mapped on demand."""

    pool: str
    virtual_start: int
    mapped: IntervalSet = field(default_factory=IntervalSet)       # mapped virtual space
    free: IntervalSet = field(default_factory=IntervalSet)         # mapped and unallocated
    handles: dict[int, PhysicalHandle] = field(default_factory=dict)  # keyed by virtual offset
    tail: int = 0  # first never-mapped offset (the growth point)

    @property
    def mapped_bytes(self) -> int:
        return self.mapped.total


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
        #: Running sum of the arenas' mapped bytes (read on every event).
        self._reserved_bytes = 0

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def reserved_bytes(self) -> int:
        return self._reserved_bytes

    def arena(self, pool: str) -> _Arena:
        """Return (creating on first use) the arena backing ``pool``."""
        if pool not in self._arenas:
            # Reserve an effectively unbounded virtual range for the arena.
            vrange = self.vmm.reserve_range(4 * self.device.capacity)
            self._arenas[pool] = _Arena(pool=pool, virtual_start=vrange.start)
        return self._arenas[pool]

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def _do_allocate(self, req_id: int, size: int, hints: AllocationHints) -> Placement:
        rounded = self.config.round_size(size)
        pool = self.config.pool_for(rounded)
        arena = self.arena(pool)
        carved = arena.free.carve(rounded, policy="best_fit")
        if carved is None:
            self.stats.cache_misses += 1
            self._grow(arena, rounded)
            carved = arena.free.carve(rounded, policy="best_fit")
            if carved is None:
                # Reclaim under memory pressure may have punched a hole into
                # the tail region we were counting on; grow by the full
                # request size so the new tail run is contiguous.
                self._grow(arena, rounded, count_tail_free=False)
                carved = arena.free.carve(rounded, policy="best_fit")
            if carved is None:  # pragma: no cover - growth guarantees a fit
                raise OutOfMemoryError(rounded, self.device.usable_capacity, self.device.in_use)
        else:
            self.stats.cache_hits += 1
        self._placements[req_id] = (pool, carved.start, rounded)
        return Placement(pool=f"es:{pool}", address=carved.start, size=rounded)

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
        while remaining:
            handles, oom = self.vmm.map_new_granules(
                arena.virtual_start + arena.tail, remaining
            )
            self._commit_run(arena, handles)
            remaining -= len(handles)
            if oom is not None and self._reclaim_free_granules() == 0:
                raise oom

    def _commit_run(self, arena: _Arena, handles: list[PhysicalHandle]) -> None:
        """Account a run of granules just mapped at the arena tail: one splice per set."""
        if not handles:
            return
        granule = self.config.granule
        start = arena.tail
        end = start + granule * len(handles)
        arena.handles.update(zip(range(start, end, granule), handles))
        arena.mapped.add(start, end)
        arena.free.add(start, end)
        arena.tail = end
        self._reserved_bytes += end - start
        self.stats.vmm_ops += 2 * len(handles)  # one create + one map per granule

    def _reclaim_free_granules(self) -> int:
        """Unmap granules that are entirely free and return them to the device.

        Returns the number of granules reclaimed.  Mirrors expandable
        segments' behaviour of releasing physical memory only under pressure.
        """
        reclaimed = 0
        for arena in self._arenas.values():
            for interval in list(arena.free):
                start = align_up(interval.start, self.config.granule)
                while start + self.config.granule <= interval.end:
                    handle = arena.handles.pop(start, None)
                    if handle is not None:
                        self.vmm.unmap(arena.virtual_start + start)
                        self.vmm.release_handle(handle)
                        self.stats.vmm_ops += 2
                        arena.mapped.remove(start, start + self.config.granule)
                        self._reserved_bytes -= self.config.granule
                        arena.free.remove(start, start + self.config.granule)
                        reclaimed += 1
                    start += self.config.granule
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
