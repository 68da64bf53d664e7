"""Dynamic Reusable Space location (§5.2).

Dynamic (MoE expert) requests have unpredictable sizes but predictable
lifetimes: a request allocated in expert layer ``l_s`` is freed in layer
``l_e``.  All dynamic requests sharing the same ``(l_s, l_e)`` pair form a
*HomoLayer group*; the group's temporal range runs from the start of ``l_s``'s
execution to the end of ``l_e``'s execution.  Within that range, every address
of the static pool not touched by any planned static allocation is safe for
dynamic reuse -- the *Dynamic Reusable Space* handed to the runtime dynamic
allocator.

The groups arrive as :class:`~repro.core.columns.HomoLayerGroup` records (a
key, the member ids and the members' earliest alloc / latest free time),
read off the trace's alloc/free pairing by
:meth:`~repro.core.columns.TraceColumns.homolayer_groups`; no dynamic request
object is built to locate the spaces.
"""

from __future__ import annotations

from repro.core.columns import HomoLayerGroup
from repro.core.intervals import IntervalSet
from repro.core.plan import StaticAllocationPlan


def locate_dynamic_reusable_spaces(
    groups: list[HomoLayerGroup],
    static_plan: StaticAllocationPlan,
    module_spans: dict[str, tuple[int, int]],
) -> dict[tuple[str, str], IntervalSet]:
    """Compute the reusable address intervals for every HomoLayer group.

    A group's temporal range is ``T(a, b) = [a.start, b.end]`` over the
    profiled module spans, widened to cover its members' own alloc/free
    extremes (which alone set it when a module was never observed, e.g. one
    that only issues frees).  The occupied address set ``A_o`` is the union
    of the address ranges of every static decision whose lifespan intersects
    ``T`` (Eq. 4); the reusable space is its complement within the static
    pool (Eq. 5-6).  The decisions are sorted by address once; each group
    then walks them in that order and emits the gaps between the ones it
    overlaps, so the cost is one sort plus ``O(k * N)`` comparisons.
    """
    if not groups:
        return {}
    pool_size = static_plan.pool_size
    if not len(static_plan) or pool_size == 0:
        return {group.key: IntervalSet() for group in groups}

    by_address = sorted(
        (address, address + size, alloc_time, free_time)
        for address, size, alloc_time, free_time in zip(
            static_plan.address, static_plan.size, static_plan.alloc_time, static_plan.free_time
        )
        if size > 0
    )
    spaces: dict[tuple[str, str], IntervalSet] = {}
    for key, _, first_alloc, last_free in groups:
        start_span = module_spans.get(key[0])
        end_span = module_spans.get(key[1])
        start = min(start_span[0], first_alloc) if start_span else first_alloc
        end = max(end_span[1], last_free) if end_span else last_free
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
