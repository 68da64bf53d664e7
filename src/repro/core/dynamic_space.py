"""Dynamic Reusable Space location (§5.2).

Dynamic (MoE expert) requests have unpredictable sizes but predictable
lifetimes: a request allocated in expert layer ``l_s`` is freed in layer
``l_e``.  All dynamic requests sharing the same ``(l_s, l_e)`` pair form a
*HomoLayer group*; the group's temporal range runs from the start of ``l_s``'s
execution to the end of ``l_e``'s execution.  Within that range, every address
of the static pool not touched by any planned static allocation is safe for
dynamic reuse -- the *Dynamic Reusable Space* handed to the runtime dynamic
allocator.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.events import MemoryRequest
from repro.core.intervals import IntervalSet
from repro.core.plan import StaticAllocationPlan


def homolayer_groups(dynamic_requests: list[MemoryRequest]) -> dict[tuple[str, str], list[MemoryRequest]]:
    """Group dynamic requests by their (allocation module, free module) pair."""
    groups: dict[tuple[str, str], list[MemoryRequest]] = defaultdict(list)
    for request in dynamic_requests:
        groups[request.layer_pair].append(request)
    return dict(groups)


def group_temporal_range(
    key: tuple[str, str],
    members: list[MemoryRequest],
    module_spans: dict[str, tuple[int, int]],
) -> tuple[int, int]:
    """Temporal range ``T(a, b) = [a.start, b.end]`` of one HomoLayer group.

    Falls back to the members' own alloc/free extremes when a module was not
    observed by the profiler (e.g. a module that only issues frees).
    """
    alloc_module, free_module = key
    start_span = module_spans.get(alloc_module)
    end_span = module_spans.get(free_module)
    start = start_span[0] if start_span else min(m.alloc_time for m in members)
    end = end_span[1] if end_span else max(m.free_time for m in members)
    # The range must at least cover the members themselves.
    start = min(start, min(m.alloc_time for m in members))
    end = max(end, max(m.free_time for m in members))
    return start, end


def locate_dynamic_reusable_spaces(
    dynamic_requests: list[MemoryRequest],
    static_plan: StaticAllocationPlan,
    module_spans: dict[str, tuple[int, int]],
) -> dict[tuple[str, str], IntervalSet]:
    """Compute the reusable address intervals for every HomoLayer group.

    For a group with temporal range ``T``, the occupied address set ``A_o`` is
    the union of the address ranges of every static decision whose lifespan
    intersects ``T`` (Eq. 4); the reusable space is its complement within the
    static pool (Eq. 5-6).  The decisions are sorted by address once; each
    group then walks them in that order and emits the gaps between the ones
    it overlaps, so the cost is one sort plus ``O(k * N)`` comparisons.
    """
    groups = homolayer_groups(dynamic_requests)
    if not groups:
        return {}
    pool_size = static_plan.pool_size
    if not len(static_plan) or pool_size == 0:
        return {key: IntervalSet() for key in groups}

    by_address = sorted(
        (address, address + size, alloc_time, free_time)
        for address, size, alloc_time, free_time in zip(
            static_plan.address, static_plan.size, static_plan.alloc_time, static_plan.free_time
        )
        if size > 0
    )
    spaces: dict[tuple[str, str], IntervalSet] = {}
    for key, members in groups.items():
        start, end = group_temporal_range(key, members, module_spans)
        # A static decision overlaps [start, end] when it is live at any
        # instant of the range (half-open lifespan [alloc, free)).
        spaces[key] = IntervalSet.gaps(
            (
                (address, end_address)
                for address, end_address, alloc_time, free_time in by_address
                if alloc_time <= end and free_time > start
            ),
            pool_size,
        )
    return spaces


def dynamic_request_group_index(dynamic_requests: list[MemoryRequest]) -> dict[int, tuple[str, str]]:
    """Map each profiled dynamic request id to its HomoLayer-group key."""
    return {request.req_id: request.layer_pair for request in dynamic_requests}
