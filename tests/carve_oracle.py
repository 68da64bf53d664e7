"""Test-only oracle for the runtime Dynamic Allocator's carve.

:func:`best_fit_within` is the walk ``RuntimeAllocator`` made over the whole
pool's free list before the profiled trace was carved beside its live dynamic
placements alone: free space intersected with a request's reusable space,
searched best-fit with ties to the lowest address, without building the
intersection.  The differential tests replay with it and compare every
dynamic placement.
"""

from __future__ import annotations

from repro.core.intervals import IntervalSet


def best_fit_within(free: IntervalSet, reusable: IntervalSet, size: int) -> int | None:
    """Where the smallest piece of ``free`` inside ``reusable`` that holds ``size`` bytes starts."""
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    a_starts, a_ends = free._starts, free._ends
    b_starts, b_ends = reusable._starts, reusable._ends
    i = j = 0
    best_start = best_length = -1
    while i < len(a_starts) and j < len(b_starts):
        a_end, b_end = a_ends[i], b_ends[j]
        start = max(a_starts[i], b_starts[j])
        length = min(a_end, b_end) - start
        if length >= size and (best_length < 0 or length < best_length):
            best_start, best_length = start, length
        if a_end < b_end:
            i += 1
        else:
            j += 1
    return None if best_length < 0 else best_start
