"""Memory-efficiency metrics (§2.2).

The paper's central metric is memory efficiency ``E = M_a / M_r`` where
``M_a`` is the peak allocated (theoretically required) memory and ``M_r`` the
peak memory reserved by the allocator.  The fragmentation ratio is ``1 - E``
and the fragmentation bytes are ``M_r - M_a``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import GIB


@dataclass(frozen=True)
class MemoryMetrics:
    """Peak memory accounting of one replay."""

    peak_allocated_bytes: int
    peak_reserved_bytes: int

    def __post_init__(self) -> None:
        if self.peak_allocated_bytes < 0 or self.peak_reserved_bytes < 0:
            raise ValueError("peak byte counts must be non-negative")

    @property
    def memory_efficiency(self) -> float:
        """``E = M_a / M_r`` (defined as 1.0 when nothing was reserved)."""
        if self.peak_reserved_bytes == 0:
            return 1.0
        return min(1.0, self.peak_allocated_bytes / self.peak_reserved_bytes)

    @property
    def fragmentation_ratio(self) -> float:
        """Fraction of reserved memory wasted: ``1 - E``."""
        return 1.0 - self.memory_efficiency

    @property
    def peak_allocated_gib(self) -> float:
        return self.peak_allocated_bytes / GIB

    @property
    def peak_reserved_gib(self) -> float:
        return self.peak_reserved_bytes / GIB
