"""GMLake-style virtual-memory-stitching allocator.

GMLake (ASPLOS '24) keeps PyTorch's caching allocator but, when a large
request cannot be served by any single contiguous free block, it *stitches*
several non-contiguous free physical blocks into one contiguous virtual span
using the CUDA VMM API.  Stitching avoids reserving a brand-new segment, so
fragmentation drops -- but only blocks at least ``frag_limit`` bytes large
participate (smaller "stranded" blocks are not worth the driver calls), each
stitched piece is handled at 2 MiB granularity, and every stitch costs VMM
operations whose latency becomes visible under churny (e.g. MoE) workloads.
The paper reproduces exactly this trade-off when tuning ``frag_limit`` from
512 MiB down to 64 MiB (§9.2).

The simulation composes the behaviour on top of
:class:`~repro.allocators.caching.CachingAllocator`:

* small-pool behaviour is untouched;
* a large-pool miss first attempts to assemble the request from free blocks
  of at least ``frag_limit`` bytes (largest first), charging VMM operations
  per stitched piece, before falling back to a fresh segment.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.allocators.base import Placement
from repro.allocators.caching import (
    Block,
    CachingAllocator,
    CachingAllocatorConfig,
    free_key,
    free_key_fields,
)
from repro.gpu.device import Device, MIB, align_up
from repro.gpu.virtual_memory import DEFAULT_GRANULE

#: Modelled latency of a VMM operation; the paper reports ~30 ms per
#: defragmentation operation under MoE churn (map + access-set + bookkeeping).
VMM_OP_SECONDS = 3e-2


@dataclass
class GMLakeConfig:
    """GMLake policy knobs."""

    #: Only free blocks at least this large are eligible for stitching
    #: (GMLake's ``fragLimit``; the shipped default is 512 MiB).
    frag_limit: int = 512 * MIB
    #: Physical granularity of stitched pieces.
    granule: int = DEFAULT_GRANULE
    #: Stitching is only attempted for requests at least this large.
    min_stitch_request: int = 32 * MIB
    label: str = "gmlake"


class GMLakeAllocator(CachingAllocator):
    """Caching allocator augmented with virtual-memory stitching."""

    def __init__(
        self,
        device: Device,
        config: GMLakeConfig | None = None,
        caching_config: CachingAllocatorConfig | None = None,
    ):
        # GMLake ships on top of PyTorch 2.0's allocator, but manages physical
        # memory through VMM granules, so every block is handled at 2 MiB
        # granularity (the source of its extra internal waste on small,
        # churny allocations such as MoE expert tensors).
        gmlake_caching = caching_config or CachingAllocatorConfig(
            min_block_size=DEFAULT_GRANULE, label="gmlake"
        )
        super().__init__(device, gmlake_caching)
        self.gmlake_config = config or GMLakeConfig()
        self.name = self.gmlake_config.label
        #: req_id -> its rounded size and stitched ``(segment_id, offset)`` pieces.
        self._stitched: dict[int, tuple[int, list[tuple[int, int]]]] = {}

    def placement(self, req_id: int) -> Placement:
        stitched = self._stitched.get(req_id)
        if stitched is None:
            return super().placement(req_id)
        rounded, pieces = stitched
        segment_id, offset = pieces[0]
        return Placement(pool=f"stitched:{segment_id}", address=offset, size=rounded)

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def _miss(self, req_id: int, rounded: int, pool: str) -> Block | None:
        """A large-pool miss first tries to stitch; only then a new segment."""
        if (
            pool == "large"
            and rounded >= self.gmlake_config.min_stitch_request
            and self._try_stitch(req_id, rounded)
        ):
            return None
        return super()._miss(req_id, rounded, pool)

    def _try_stitch(self, req_id: int, rounded: int) -> bool:
        """Assemble ``rounded`` bytes from free blocks >= ``frag_limit``."""
        candidates = self._stitch_candidates()
        if sum(block.size for block in candidates) < rounded:
            return False
        index = self._free_index["large"]
        pieces: list[tuple[int, int]] = []
        remaining = rounded
        for block in candidates:
            if remaining <= 0:
                break
            segment = self._segments[block.segment_id]
            del index[bisect_left(index, free_key(block.size, block.segment_id, block.offset))]
            # Stitched pieces are mapped at granule granularity; a partially
            # used block is split so the tail stays reusable.
            take = min(block.size, align_up(remaining, self.gmlake_config.granule))
            if take < block.size and (block.size - take) >= self.config.min_block_size:
                self._split(segment, block, take)
            block.free = False
            block.req_id = req_id
            pieces.append((block.segment_id, block.offset))
            remaining -= block.size
        self.stats.stitches += 1
        # Reserve + map/unmap per piece: GMLake's per-stitch driver cost.
        self.stats.vmm_ops += 1 + 2 * len(pieces)
        self._stitched[req_id] = (rounded, pieces)
        return True

    def _stitch_candidates(self) -> list[Block]:
        """Free blocks eligible for stitching, largest first."""
        candidates: list[Block] = []
        for key in self._free_index["large"]:
            size, segment_id, offset = free_key_fields(key)
            if size >= self.gmlake_config.frag_limit:
                candidates.append(self._segments[segment_id].blocks[offset])
        candidates.sort(key=lambda block: block.size, reverse=True)
        return candidates

    # ------------------------------------------------------------------ #
    # Free
    # ------------------------------------------------------------------ #
    def _do_free(self, req_id: int) -> None:
        stitched = self._stitched.pop(req_id, None)
        if stitched is None:
            super()._do_free(req_id)
            return
        _, pieces = stitched
        self.stats.vmm_ops += len(pieces)
        for segment_id, offset in pieces:
            segment = self._segments[segment_id]
            block = segment.blocks[offset]
            block.free = True
            block.req_id = None
            self._merge_with_neighbours(segment, block)

    def overhead_seconds(self) -> float:
        driver = super().overhead_seconds()
        return driver + self.stats.vmm_ops * VMM_OP_SECONDS
