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

from dataclasses import dataclass

from repro.allocators.base import AllocationHints, Placement
from repro.allocators.caching import Block, CachingAllocator, CachingAllocatorConfig
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
        #: req_id -> list of stitched (segment_id, offset) pieces.
        self._stitched: dict[int, list[tuple[int, int]]] = {}

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def _do_allocate(self, req_id: int, size: int, hints: AllocationHints) -> Placement:
        rounded = self.config.round_size(size)
        pool = self.config.pool_for(rounded)
        block = self._take_best_fit(pool, rounded)
        if (
            block is None
            and pool == "large"
            and rounded >= self.gmlake_config.min_stitch_request
        ):
            placement = self._try_stitch(req_id, rounded)
            if placement is not None:
                return placement
        return self._place(req_id, rounded, pool, block)

    def _try_stitch(self, req_id: int, rounded: int) -> Placement | None:
        """Assemble ``rounded`` bytes from free blocks >= ``frag_limit``."""
        candidates = self._stitch_candidates()
        if sum(block.size for block in candidates) < rounded:
            return None
        pieces: list[tuple[int, int]] = []
        remaining = rounded
        for block in candidates:
            if remaining <= 0:
                break
            segment = self._segments[block.segment_id]
            self._index_remove(segment.pool, block)
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
        self._stitched[req_id] = pieces
        first_segment, first_offset = pieces[0]
        return Placement(pool=f"stitched:{first_segment}", address=first_offset, size=rounded)

    def _stitch_candidates(self) -> list[Block]:
        """Free blocks eligible for stitching, largest first."""
        candidates: list[Block] = []
        for size, segment_id, offset in self._free_index["large"]:
            if size >= self.gmlake_config.frag_limit:
                candidates.append(self._segments[segment_id].blocks[offset])
        candidates.sort(key=lambda block: block.size, reverse=True)
        return candidates

    # ------------------------------------------------------------------ #
    # Free
    # ------------------------------------------------------------------ #
    def _do_free(self, req_id: int) -> None:
        pieces = self._stitched.pop(req_id, None)
        if pieces is None:
            super()._do_free(req_id)
            return
        self.stats.vmm_ops += len(pieces)
        for segment_id, offset in pieces:
            segment = self._segments[segment_id]
            block = segment.blocks[offset]
            block.free = True
            block.req_id = None
            self._merge_with_neighbours(segment, block)
        self._placements.pop(req_id, None)

    def overhead_seconds(self) -> float:
        driver = super().overhead_seconds()
        return driver + self.stats.vmm_ops * VMM_OP_SECONDS
