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

from bisect import bisect_right
from collections import deque
from itertools import compress
from operator import itemgetter

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
    pool (Eq. 5-6).

    A decision (half-open lifespan ``[alloc, free)``) intersects ``[start,
    end]`` when it is live at ``start`` or allocated in ``(start, end]``.
    One time-ordered sweep visits the groups by start and keeps the
    decisions live at the current start; the ones allocated inside a range
    are a slice of the decisions sorted by alloc time.  So each group visits
    only the decisions that occupy it, and the cost is two sorts, one pass
    over the decisions and, per group, a sort of its occupied spans by
    address before :meth:`IntervalSet.gaps` walks them.
    """
    if not groups:
        return {}
    pool_size = static_plan.pool_size
    if not len(static_plan) or pool_size == 0:
        return {group.key: IntervalSet() for group in groups}

    decisions = sorted(
        (alloc_time, free_time, address, address + size)
        for address, size, alloc_time, free_time in zip(
            static_plan.address, static_plan.size, static_plan.alloc_time, static_plan.free_time
        )
        if size > 0
    )
    alloc_times, free_times, starts, ends = zip(*decisions)
    spans = list(zip(starts, ends))
    by_free = sorted(range(len(decisions)), key=free_times.__getitem__)
    closing_times = [free_times[index] for index in by_free]
    ranges = []
    for key, _, first_alloc, last_free in groups:
        start_span = module_spans.get(key[0])
        end_span = module_spans.get(key[1])
        start = min(start_span[0], first_alloc) if start_span else first_alloc
        end = max(end_span[1], last_free) if end_span else last_free
        ranges.append((start, end, key))
    ranges.sort(key=itemgetter(0))

    live: dict[int, tuple[int, int]] = {}  # decision index -> address span
    opened = closed = 0
    spaces: dict[tuple[str, str], IntervalSet] = {}
    for start, end, key in ranges:
        # Decisions allocated up to ``start`` join, those freed by it leave.
        first_inside = bisect_right(alloc_times, start, opened)
        live.update(zip(range(opened, first_inside), spans[opened:first_inside]))
        opened = first_inside
        freed = bisect_right(closing_times, start, closed)
        deque(map(live.pop, by_free[closed:freed]), maxlen=0)
        closed = freed
        occupied = list(live.values())
        last_inside = bisect_right(alloc_times, end, first_inside)
        occupied += compress(
            spans[first_inside:last_inside],
            [free_time > start for free_time in free_times[first_inside:last_inside]],
        )
        occupied.sort(key=itemgetter(0))
        spaces[key] = IntervalSet.gaps(occupied, pool_size)
    return {group.key: spaces[group.key] for group in groups}
