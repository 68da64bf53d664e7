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
from repro.gpu.device import Device, MIB, align_up
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


@dataclass(slots=True)
class Block:
    """A contiguous range inside a segment; either free or backing a request.

    Blocks tile their segment, so the right neighbour of a block is
    ``segment.blocks.get(block.offset + block.size)``; ``prev`` links the left
    one.  Together they are the doubly-linked block list PyTorch's allocator
    coalesces over.
    """

    segment_id: int
    offset: int
    size: int
    free: bool = True
    req_id: int | None = None
    prev: "Block | None" = field(default=None, repr=False, compare=False)


@dataclass
class Segment:
    """One device allocation sliced into blocks."""

    segment_id: int
    pool: str
    size: int
    device_allocation: object
    blocks: dict[int, Block] = field(default_factory=dict)  # keyed by offset

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
        self._placements: dict[int, Block] = {}  # req_id -> the block backing it
        #: Running sum of the live segments' sizes (read on every event).
        self._reserved_bytes = 0

    # ------------------------------------------------------------------ #
    # Reserved-memory accounting
    # ------------------------------------------------------------------ #
    @property
    def reserved_bytes(self) -> int:
        return self._reserved_bytes

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

    def _take_best_fit(self, pool: str, rounded: int) -> Block | None:
        """Take the smallest free block in ``pool`` that fits ``rounded`` bytes.

        The block leaves the free index (its position is already known here);
        ``None`` leaves the index untouched.

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
        del index[pos]
        return self._segments[segment_id].blocks[offset]

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def _do_allocate(self, req_id: int, size: int, hints: AllocationHints) -> Placement:
        rounded = self.config.round_size(size)
        pool = self.config.pool_for(rounded)
        return self._place(req_id, rounded, pool, self._take_best_fit(pool, rounded))

    def _place(self, req_id: int, rounded: int, pool: str, block: Block | None) -> Placement:
        """Serve a request from ``block`` (its best fit, taken), or from a new segment."""
        if block is not None:
            self.stats.cache_hits += 1
        else:
            self.stats.cache_misses += 1
            block = self._allocate_segment(pool, rounded)
        if block.size > rounded and self.config.should_split(block.size, rounded, pool):
            self._split(self._segments[block.segment_id], block, rounded)
        block.free = False
        block.req_id = req_id
        self._placements[req_id] = block
        return Placement(pool=f"segment:{block.segment_id}", address=block.offset, size=block.size)

    def _allocate_segment(self, pool: str, rounded: int) -> Block:
        """Request a new segment from the device, releasing caches on OOM.

        Returns the segment's single free block, not indexed: the caller is
        about to carve the request out of it.
        """
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
        return block

    def _device_malloc(self, size: int):
        allocation = self.device.malloc(size)
        self.stats.device_malloc_calls += 1
        return allocation

    def _split(self, segment: Segment, block: Block, keep: int) -> None:
        """Shrink ``block`` to ``keep`` bytes; the tail becomes an indexed free block."""
        remainder = Block(
            segment_id=block.segment_id,
            offset=block.offset + keep,
            size=block.size - keep,
            free=True,
            prev=block,
        )
        following = segment.blocks.get(block.offset + block.size)
        if following is not None:
            following.prev = remainder
        block.size = keep
        segment.blocks[remainder.offset] = remainder
        self._index_insert(segment.pool, remainder)
        self.stats.splits += 1

    # ------------------------------------------------------------------ #
    # Free
    # ------------------------------------------------------------------ #
    def _do_free(self, req_id: int) -> None:
        block = self._placements.pop(req_id)
        block.free = True
        block.req_id = None
        self._merge_with_neighbours(self._segments[block.segment_id], block)

    def _merge_with_neighbours(self, segment: Segment, block: Block) -> None:
        """Coalesce ``block`` with free neighbours, then (re)index it."""
        pool = segment.pool
        blocks = segment.blocks
        following = blocks.get(block.offset + block.size)
        if following is not None and following.free:
            self._index_remove(pool, following)
            del blocks[following.offset]
            block.size += following.size
            following = blocks.get(block.offset + block.size)
            self.stats.merges += 1
        previous = block.prev
        if previous is not None and previous.free:
            self._index_remove(pool, previous)
            del blocks[block.offset]
            previous.size += block.size
            block = previous
            self.stats.merges += 1
        if following is not None:
            following.prev = block
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
