"""Allocator registry.

Experiments refer to allocators by the short names used in the paper's
figures ("torch2.0", "gmlake", "torch2.3", "torch_es", "stalloc"); the
registry maps those names to factory callables so harness code never needs to
know construction details.  The built-in factories import their allocator
class on first use, so validating a name (sweep specs, the CLI) loads no
allocator implementation.  STAlloc itself is built by
:mod:`repro.simulator.runner` because it requires a profiling pass; only its
names live here.
"""

from __future__ import annotations

import importlib
from collections.abc import Mapping
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.allocators.base import Allocator
    from repro.gpu.device import Device

AllocatorFactory = Callable[["Device"], "Allocator"]

#: Name under which STAlloc appears in experiment tables.
STALLOC = "stalloc"
#: STAlloc with the dynamic-reuse path disabled (the §9.4 ablation).
STALLOC_NO_REUSE = "stalloc_no_reuse"


def _builtin(submodule: str, class_name: str, config_name: str | None = None) -> AllocatorFactory:
    """Factory for ``repro.allocators.<submodule>.<class_name>``, imported when called."""

    def factory(device: Device) -> Allocator:
        module = importlib.import_module(f"repro.allocators.{submodule}")
        allocator_class = getattr(module, class_name)
        if config_name is None:
            return allocator_class(device)
        return allocator_class(device, getattr(module, config_name)())

    return factory


#: Read-only: the allocators a spec may name are fixed.
_REGISTRY: Mapping[str, AllocatorFactory] = MappingProxyType({
    "native": _builtin("native", "NativeAllocator"),
    "torch2.0": _builtin("caching", "CachingAllocator", "torch20_config"),
    "torch2.3": _builtin("caching", "CachingAllocator", "torch23_config"),
    "torch2.6": _builtin("caching", "CachingAllocator", "torch23_config"),
    "torch_es": _builtin("expandable", "ExpandableSegmentsAllocator"),
    "gmlake": _builtin("gmlake", "GMLakeAllocator"),
})


def available_allocators() -> list[str]:
    """Names accepted by :func:`create_allocator`."""
    return sorted(_REGISTRY)


def create_allocator(name: str, device: Device) -> Allocator:
    """Instantiate the allocator registered under ``name`` for ``device``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown allocator {name!r}; available: {', '.join(available_allocators())}"
        ) from None
    return factory(device)
