"""Baseline GPU memory allocators.

These are the systems STAlloc is compared against in the paper's evaluation:

* :class:`~repro.allocators.native.NativeAllocator` -- every request goes
  straight to the device (``cudaMalloc``/``cudaFree``).  Used by the
  Allocation Profiler, and as the "no fragmentation" reference.
* :class:`~repro.allocators.caching.CachingAllocator` -- a re-implementation
  of PyTorch's CUDA caching allocator (best-fit with block split/merge,
  small/large pools, 512-byte rounding, empty-cache-on-OOM), with ``Torch
  2.0`` and ``Torch 2.3`` presets.
* :class:`~repro.allocators.expandable.ExpandableSegmentsAllocator` --
  PyTorch's ``expandable_segments:True`` mode built on the virtual-memory API.
* :class:`~repro.allocators.gmlake.GMLakeAllocator` -- GMLake-style virtual
  memory stitching on top of the caching allocator, with a configurable
  ``frag_limit``.

All allocators implement the :class:`~repro.allocators.base.Allocator`
interface so the replay simulator and the experiments can treat them
uniformly.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "base": ["AllocationHints", "Allocator", "AllocatorStats", "Placement"],
        "caching": [
            "CachingAllocator",
            "CachingAllocatorConfig",
            "torch20_config",
            "torch23_config",
        ],
        "expandable": ["ExpandableSegmentsAllocator", "ExpandableSegmentsConfig"],
        "gmlake": ["GMLakeAllocator", "GMLakeConfig"],
        "native": ["NativeAllocator"],
        "registry": ["available_allocators", "create_allocator"],
    },
)
