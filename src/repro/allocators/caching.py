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

from bisect import bisect_left, insort
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
    The rounding, pool and split rules that read these knobs are inlined in
    :meth:`CachingAllocator._do_allocate`, the replay's per-event step.
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

    def segment_size_for(self, rounded: int) -> int:
        """Size of the device segment to request for a cache miss."""
        if rounded <= self.small_size_threshold:
            return self.small_segment_size
        if rounded < self.min_large_alloc:
            return self.large_segment_size
        return align_up(rounded, self.round_large)


def torch20_config() -> CachingAllocatorConfig:
    """The PyTorch 2.0 caching-allocator defaults (unlimited splitting)."""
    return CachingAllocatorConfig(label="torch2.0")


def torch23_config() -> CachingAllocatorConfig:
    """PyTorch 2.3 with the commonly deployed ``max_split_size_mb`` mitigation."""
    return CachingAllocatorConfig(max_split_size=512 * MIB, label="torch2.3")


#: The free-block index's key.  A free block's ``(size, segment_id, offset)``
#: packs into one int, size in the high bits, so that the ints sort exactly
#: like the tuples and a best fit is one ``bisect`` over plain ints.  A segment
#: is checked against the widths when it is created (:func:`free_key`), so
#: every offset inside it fits too.  The per-event paths inline the two
#: functions below with these constants; ``Block.position`` holds the
#: ``(segment_id, offset)`` half of a block's key.
OFFSET_BITS = 40   # offsets and segment sizes up to 1 TiB
SEGMENT_BITS = 24  # 16M segments per allocator
_SEGMENT_SHIFT = OFFSET_BITS
_SIZE_SHIFT = OFFSET_BITS + SEGMENT_BITS
_OFFSET_MASK = (1 << OFFSET_BITS) - 1
_SEGMENT_MASK = (1 << SEGMENT_BITS) - 1


def free_key(size: int, segment_id: int, offset: int) -> int:
    """The free-index key of a block: ints that sort like ``(size, segment_id, offset)``.

    Raises ``ValueError`` for a segment id or offset beyond its field's width,
    which would otherwise sort the key into the wrong place.
    """
    fields = (("segment id", segment_id, SEGMENT_BITS), ("offset", offset, OFFSET_BITS))
    for name, value, bits in fields:
        if not 0 <= value < 1 << bits:
            raise ValueError(f"{name} {value} does not fit the free index's {bits} bits")
    return size << _SIZE_SHIFT | segment_id << _SEGMENT_SHIFT | offset


def free_key_fields(key: int) -> tuple[int, int, int]:
    """``(size, segment_id, offset)`` of a free-index key."""
    return key >> _SIZE_SHIFT, key >> _SEGMENT_SHIFT & _SEGMENT_MASK, key & _OFFSET_MASK


@dataclass(slots=True)
class Block:
    """A contiguous range inside a segment; either free or backing a request.

    Blocks tile their segment, so the right neighbour of a block is
    ``segment.blocks.get(block.offset + block.size)``; ``prev`` links the left
    one.  Together they are the doubly-linked block list PyTorch's allocator
    coalesces over.  ``position`` is ``free_key(0, segment_id, offset)``, so a
    free block's key is ``size << _SIZE_SHIFT | position``.
    """

    segment_id: int
    offset: int
    size: int
    position: int
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
        self._last_segment_id = 0
        self._segments: dict[int, Segment] = {}
        # Free-block index per pool: a sorted list of free_key ints.
        self._free_index: dict[str, list[int]] = {"small": [], "large": []}
        self._placements: dict[int, Block] = {}  # req_id -> the block backing it

    def placement(self, req_id: int) -> Placement:
        block = self._placements[req_id]
        return Placement(pool=f"segment:{block.segment_id}", address=block.offset, size=block.size)

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def _do_allocate(self, req_id: int, size: int, hints: AllocationHints) -> None:
        """Round, pick the pool, take the best fit (or a new segment), and split it.

        The best fit is the smallest free block in the pool that holds the
        rounded size, ties to the lowest ``(segment_id, offset)``.  With
        ``max_split_size`` configured, PyTorch's rules for oversize blocks
        apply: a request below the limit never takes an oversize block (it
        could not be split, so it would be wasted), and one above the limit
        takes an oversize block only when the leftover is below one
        large-buffer's worth.
        """
        config = self.config
        granule = config.min_block_size
        rounded = (size + granule - 1) // granule * granule
        small = rounded <= config.small_size_threshold
        pool = "small" if small else "large"
        index = self._free_index[pool]
        pos = bisect_left(index, rounded << _SIZE_SHIFT)
        block = None
        if pos < len(index):
            key = index[pos]
            limit = config.max_split_size
            found = key >> _SIZE_SHIFT
            if small or limit is None or (
                found < limit if rounded < limit else found < rounded + config.large_segment_size
            ):
                del index[pos]
                segment = self._segments[key >> _SEGMENT_SHIFT & _SEGMENT_MASK]
                block = segment.blocks[key & _OFFSET_MASK]
        if block is None:
            block = self._miss(req_id, rounded, pool)
            if block is None:
                return
        else:
            self.stats.cache_hits += 1
        block_size = block.size
        if block_size > rounded:
            remaining = block_size - rounded
            if (
                remaining >= granule
                if small
                else remaining > config.small_size_threshold
                and (config.max_split_size is None or block_size <= config.max_split_size)
            ):
                self._split(self._segments[block.segment_id], block, rounded)
        block.free = False
        block.req_id = req_id
        self._placements[req_id] = block

    def _miss(self, req_id: int, rounded: int, pool: str) -> Block | None:
        """Serve a request no free block fits: a new segment's block, not yet indexed.

        ``None`` means the request was placed some other way (GMLake stitches).
        """
        self.stats.cache_misses += 1
        return self._allocate_segment(pool, rounded)

    def _allocate_segment(self, pool: str, rounded: int) -> Block:
        """Request a new segment from the device, releasing caches on OOM.

        Returns the segment's single free block, not indexed: the caller is
        about to carve the request out of it.
        """
        segment_size = self.config.segment_size_for(rounded)
        segment_id = self._last_segment_id + 1  # ids count successful mallocs only
        # Raises unless the id and the segment's last offset fit the free
        # index's widths, so every block of the segment has a valid key.
        free_key(0, segment_id, segment_size - 1)
        try:
            device_allocation = self._device_malloc(segment_size)
        except OutOfMemoryError:
            if not self.config.release_cached_on_oom:
                raise
            self.release_cached_segments()
            device_allocation = self._device_malloc(segment_size)
        self._last_segment_id = segment_id
        segment = Segment(
            segment_id=segment_id,
            pool=pool,
            size=segment_size,
            device_allocation=device_allocation,
        )
        block = Block(segment_id, 0, segment_size, segment_id << _SEGMENT_SHIFT)
        segment.blocks[0] = block
        self._segments[segment_id] = segment
        self._reserved_bytes += segment_size
        return block

    def _device_malloc(self, size: int):
        allocation = self.device.malloc(size)
        self.stats.device_malloc_calls += 1
        return allocation

    def _split(self, segment: Segment, block: Block, keep: int) -> None:
        """Shrink ``block`` to ``keep`` bytes; the tail becomes an indexed free block."""
        size = block.size - keep
        position = block.position + keep
        remainder = Block(
            segment_id=block.segment_id,
            offset=block.offset + keep,
            size=size,
            position=position,
            prev=block,
        )
        following = segment.blocks.get(block.offset + block.size)
        if following is not None:
            following.prev = remainder
        block.size = keep
        segment.blocks[remainder.offset] = remainder
        insort(self._free_index[segment.pool], size << _SIZE_SHIFT | position)
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
        index = self._free_index[segment.pool]
        blocks = segment.blocks
        following = blocks.get(block.offset + block.size)
        if following is not None and following.free:
            del index[bisect_left(index, following.size << _SIZE_SHIFT | following.position)]
            del blocks[following.offset]
            block.size += following.size
            following = blocks.get(block.offset + block.size)
            self.stats.merges += 1
        previous = block.prev
        if previous is not None and previous.free:
            del index[bisect_left(index, previous.size << _SIZE_SHIFT | previous.position)]
            del blocks[block.offset]
            previous.size += block.size
            block = previous
            self.stats.merges += 1
        if following is not None:
            following.prev = block
        insort(index, block.size << _SIZE_SHIFT | block.position)

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
            index = self._free_index[segment.pool]
            for block in segment.blocks.values():
                del index[bisect_left(index, block.size << _SIZE_SHIFT | block.position)]
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
