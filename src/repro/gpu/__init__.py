"""Simulated GPU memory substrate.

The real STAlloc runs on NVIDIA/AMD GPUs and talks to ``cudaMalloc``,
``cudaFree`` and the CUDA virtual-memory-management (VMM) driver API.  This
package provides byte-accurate simulations of those interfaces:

* :class:`~repro.gpu.device.Device` -- a GPU with a fixed memory capacity and
  ``malloc``/``free`` physical allocation (the ``cudaMalloc`` analogue).
* :class:`~repro.gpu.virtual_memory.VirtualMemoryManager` -- the
  ``cuMemCreate`` / ``cuMemAddressReserve`` / ``cuMemMap`` analogue used by the
  expandable-segments and GMLake-style allocators.
* :data:`~repro.gpu.specs.GPU_SPECS` -- the shared GPU specs of the paper's
  testbeds (A800-80GB, H200-141GB, MI210-64GB), which size every device.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "device": [
            "Device",
            "DeviceStats",
            "PhysicalAllocation",
        ],
        "specs": ["GPU_SPECS", "GPUSpec", "get_gpu"],
        "errors": ["DeviceError", "DoubleFreeError", "InvalidAddressError", "OutOfMemoryError"],
        "virtual_memory": ["VirtualMemoryManager", "VirtualRange"],
    },
)
