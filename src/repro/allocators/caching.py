"""PyTorch-style CUDA caching allocator.

This is a faithful re-implementation of the allocation policy of
``c10::cuda::CUDACachingAllocator`` (the paper's "PyTorch 2.0" / "PyTorch 2.3"
baselines):

* request sizes are rounded up to 512-byte multiples;
* requests below 1 MiB are served from a *small* pool of 2 MiB segments,
  larger requests from a *large* pool (20 MiB segments below 10 MiB requests,
  exact granule-aligned segments above);
* free blocks are reused with a best-fit policy (smallest free block that
  fits, ties broken by lowest address) and split when the remainder is worth
  keeping;
* freed blocks are merged with free neighbours inside the same segment;
* when the device refuses to provide a new segment the allocator releases all
  cached (fully free) segments and retries before surfacing the OOM.

The allocator keeps no knowledge of tensor lifespans -- that is precisely the
property STAlloc exploits to beat it.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

from repro.allocators.base import AllocationHints, Allocator, Placement
from repro.gpu.device import Device, KIB, MIB, align_up
from repro.gpu.errors import OutOfMemoryError

#: PyTorch constants (names follow CUDACachingAllocator.cpp).
K_MIN_BLOCK_SIZE = 512          # all sizes are rounded to multiples of this
K_SMALL_SIZE = 1 * MIB          # largest "small" request
K_SMALL_BUFFER = 2 * MIB        # small-pool segment size
K_LARGE_BUFFER = 20 * MIB       # large-pool segment size for medium requests
K_MIN_LARGE_ALLOC = 10 * MIB    # requests above this get their own segment
K_ROUND_LARGE = 2 * MIB         # granularity of oversized segments


@dataclass
class CachingAllocatorConfig:
    """Tunable policy knobs of the caching allocator.

    ``max_split_size`` mirrors PyTorch's ``max_split_size_mb`` option: free
    blocks larger than the limit are never split, which keeps huge blocks
    intact and is the standard fragmentation mitigation recommended for newer
    PyTorch releases.  ``None`` means unlimited splitting (PyTorch default).
    """

    small_size_threshold: int = K_SMALL_SIZE
    small_segment_size: int = K_SMALL_BUFFER
    large_segment_size: int = K_LARGE_BUFFER
    min_large_alloc: int = K_MIN_LARGE_ALLOC
    round_large: int = K_ROUND_LARGE
    min_block_size: int = K_MIN_BLOCK_SIZE
    max_split_size: int | None = None
    release_cached_on_oom: bool = True
    label: str = "caching"

    def round_size(self, size: int) -> int:
        """Round a request to the allocator's block granularity."""
        if size < self.min_block_size:
            return self.min_block_size
        return align_up(size, self.min_block_size)

    def segment_size_for(self, rounded: int) -> int:
        """Size of the device segment to request for a cache miss."""
        if rounded <= self.small_size_threshold:
            return self.small_segment_size
        if rounded < self.min_large_alloc:
            return self.large_segment_size
        return align_up(rounded, self.round_large)

    def pool_for(self, rounded: int) -> str:
        return "small" if rounded <= self.small_size_threshold else "large"

    def should_split(self, block_size: int, rounded: int, pool: str) -> bool:
        """Whether the remainder after carving ``rounded`` is worth keeping."""
        remaining = block_size - rounded
        if pool == "small":
            return remaining >= self.min_block_size
        if remaining <= self.small_size_threshold:
            return False
        if self.max_split_size is not None and block_size > self.max_split_size:
            return False
        return True


def torch20_config() -> CachingAllocatorConfig:
    """The PyTorch 2.0 caching-allocator defaults (unlimited splitting)."""
    return CachingAllocatorConfig(label="torch2.0")


def torch23_config() -> CachingAllocatorConfig:
    """PyTorch 2.3 with the commonly deployed ``max_split_size_mb`` mitigation."""
    return CachingAllocatorConfig(max_split_size=512 * MIB, label="torch2.3")


@dataclass
class Block:
    """A contiguous range inside a segment; either free or backing a request."""

    segment_id: int
    offset: int
    size: int
    free: bool = True
    req_id: int | None = None

    @property
    def end(self) -> int:
        return self.offset + self.size


@dataclass
class Segment:
    """One device allocation sliced into blocks."""

    segment_id: int
    pool: str
    size: int
    device_allocation: object
    blocks: dict[int, Block] = field(default_factory=dict)  # keyed by offset

    def sorted_blocks(self) -> list[Block]:
        return [self.blocks[offset] for offset in sorted(self.blocks)]

    def is_fully_free(self) -> bool:
        return all(block.free for block in self.blocks.values())


class CachingAllocator(Allocator):
    """Best-fit caching allocator with small/large pools (PyTorch baseline)."""

    def __init__(self, device: Device, config: CachingAllocatorConfig | None = None):
        super().__init__()
        self.device = device
        self.config = config or CachingAllocatorConfig()
        self.name = self.config.label
        self._segment_ids = itertools.count(1)
        self._segments: dict[int, Segment] = {}
        # Free-block index per pool: sorted list of (size, segment_id, offset).
        self._free_index: dict[str, list[tuple[int, int, int]]] = {"small": [], "large": []}
        self._placements: dict[int, tuple[int, int]] = {}  # req_id -> (segment_id, offset)
        #: Running sum of the live segments' sizes (read on every event).
        self._reserved_bytes = 0

    # ------------------------------------------------------------------ #
    # Reserved-memory accounting
    # ------------------------------------------------------------------ #
    @property
    def reserved_bytes(self) -> int:
        return self._reserved_bytes

    @property
    def cached_bytes(self) -> int:
        """Bytes reserved but currently free (the fragmentation + cache)."""
        return self.reserved_bytes - sum(
            block.size
            for segment in self._segments.values()
            for block in segment.blocks.values()
            if not block.free
        )

    def segments(self) -> list[Segment]:
        """Live segments (exposed for white-box tests and statistics)."""
        return list(self._segments.values())

    # ------------------------------------------------------------------ #
    # Free-block index maintenance
    # ------------------------------------------------------------------ #
    def _index_insert(self, pool: str, block: Block) -> None:
        bisect.insort(self._free_index[pool], (block.size, block.segment_id, block.offset))

    def _index_remove(self, pool: str, block: Block) -> None:
        key = (block.size, block.segment_id, block.offset)
        index = self._free_index[pool]
        pos = bisect.bisect_left(index, key)
        if pos < len(index) and index[pos] == key:
            del index[pos]
        else:  # pragma: no cover - defensive, indicates an index bug
            raise RuntimeError(f"free-block index out of sync for {key}")

    def _find_best_fit(self, pool: str, rounded: int) -> Block | None:
        """Smallest free block in ``pool`` that fits ``rounded`` bytes.

        When ``max_split_size`` is configured the PyTorch rules for oversize
        blocks apply: requests below the limit never take an oversize block
        (they would waste it, since it cannot be split), and requests above
        the limit only take an oversize block when the leftover is below one
        large-buffer's worth.
        """
        index = self._free_index[pool]
        pos = bisect.bisect_left(index, (rounded, -1, -1))
        if pos >= len(index):
            return None
        size, segment_id, offset = index[pos]
        limit = self.config.max_split_size
        if limit is not None and pool == "large":
            if rounded < limit and size >= limit:
                return None
            if rounded >= limit and size >= rounded + self.config.large_segment_size:
                return None
        return self._segments[segment_id].blocks[offset]

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def _do_allocate(self, req_id: int, size: int, hints: AllocationHints) -> Placement:
        rounded = self.config.round_size(size)
        pool = self.config.pool_for(rounded)
        block = self._find_best_fit(pool, rounded)
        if block is not None:
            self.stats.cache_hits += 1
        else:
            self.stats.cache_misses += 1
            block = self._allocate_segment(pool, rounded)
        self._index_remove(pool, block)
        block = self._maybe_split(block, rounded, pool)
        block.free = False
        block.req_id = req_id
        self._placements[req_id] = (block.segment_id, block.offset)
        return Placement(pool=f"segment:{block.segment_id}", address=block.offset, size=block.size)

    def _allocate_segment(self, pool: str, rounded: int) -> Block:
        """Request a new segment from the device, releasing caches on OOM."""
        segment_size = self.config.segment_size_for(rounded)
        try:
            device_allocation = self._device_malloc(segment_size)
        except OutOfMemoryError:
            if not self.config.release_cached_on_oom:
                raise
            self.release_cached_segments()
            device_allocation = self._device_malloc(segment_size)
        segment = Segment(
            segment_id=next(self._segment_ids),
            pool=pool,
            size=segment_size,
            device_allocation=device_allocation,
        )
        block = Block(segment_id=segment.segment_id, offset=0, size=segment_size, free=True)
        segment.blocks[0] = block
        self._segments[segment.segment_id] = segment
        self._reserved_bytes += segment_size
        self._index_insert(pool, block)
        return block

    def _device_malloc(self, size: int):
        allocation = self.device.malloc(size)
        self.stats.device_malloc_calls += 1
        return allocation

    def _maybe_split(self, block: Block, rounded: int, pool: str) -> Block:
        """Split ``block`` so the request occupies exactly ``rounded`` bytes."""
        if block.size > rounded and self.config.should_split(block.size, rounded, pool):
            segment = self._segments[block.segment_id]
            remainder = Block(
                segment_id=block.segment_id,
                offset=block.offset + rounded,
                size=block.size - rounded,
                free=True,
            )
            block.size = rounded
            segment.blocks[remainder.offset] = remainder
            self._index_insert(pool, remainder)
            self.stats.splits += 1
        return block

    # ------------------------------------------------------------------ #
    # Free
    # ------------------------------------------------------------------ #
    def _do_free(self, req_id: int) -> None:
        segment_id, offset = self._placements.pop(req_id)
        segment = self._segments[segment_id]
        block = segment.blocks[offset]
        block.free = True
        block.req_id = None
        self._merge_with_neighbours(segment, block)

    def _merge_with_neighbours(self, segment: Segment, block: Block) -> None:
        """Coalesce ``block`` with free neighbours, then (re)index it."""
        pool = segment.pool
        blocks = segment.sorted_blocks()
        position = blocks.index(block)
        # Merge the next neighbour first so offsets stay valid.
        if position + 1 < len(blocks) and blocks[position + 1].free:
            neighbour = blocks[position + 1]
            self._index_remove(pool, neighbour)
            del segment.blocks[neighbour.offset]
            block.size += neighbour.size
            self.stats.merges += 1
        if position > 0 and blocks[position - 1].free:
            neighbour = blocks[position - 1]
            self._index_remove(pool, neighbour)
            del segment.blocks[block.offset]
            neighbour.size += block.size
            block = neighbour
            self.stats.merges += 1
        self._index_insert(pool, block)

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #
    def release_cached_segments(self) -> int:
        """Free every fully-free segment back to the device (``empty_cache``).

        Returns the number of bytes returned to the device.
        """
        released = 0
        for segment in list(self._segments.values()):
            if not segment.is_fully_free():
                continue
            for block in segment.blocks.values():
                self._index_remove(segment.pool, block)
            self.device.free(segment.device_allocation)
            self.stats.device_free_calls += 1
            released += segment.size
            del self._segments[segment.segment_id]
            self._reserved_bytes -= segment.size
        return released

    def overhead_seconds(self) -> float:
        """Driver-call overhead: segment mallocs/frees are ~1 ms each."""
        driver_calls = self.stats.device_malloc_calls + self.stats.device_free_calls
        return driver_calls * 1e-3
