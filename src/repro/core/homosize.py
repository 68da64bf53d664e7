"""HomoSize groups and memory-layer construction (Algorithm 1, §5.1).

After HomoPhase planning and fusion, many local plans have *exactly* the same
size (every micro-batch behaves identically), differing only in lifespan.  A
*HomoSize group* collects the plans of one size; because any subset with
non-overlapping lifespans can share the same bytes, the group's local layout
is a stack of *memory-layers*: each layer is a byte range of the group's size
that several plans occupy one after another in time.

Algorithm 1 builds the layers greedily: plans are processed in allocation
order and appended to the layer whose last occupant frees latest but still
before the plan starts (minimising idle time), or to a brand-new layer when no
existing layer is free in time.

A layer is a rectangle of bytes x time: each occupant holds ``[offset, offset +
plan.size)`` for ``[start_time, end_time)``.  Same-size plans fill the layer's
whole height one after another; a smaller plan inserted later may take any byte
range that is idle through its window, beside other small occupants (Requests
Insertion, Figure 6).  The layer keeps the windows in which *any* byte is
occupied disjoint and sorted, so "is the whole height free?" is one bisect;
only a plan that failed that test everywhere pays for the byte-range search.

The global planner's longest-lifetime-first candidate is the same rectangle
with no fixed height: one layer taller than it can ever fill, every plan placed
by the byte-range search, its size set to the highest byte used at the end.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.homophase import LocalPlan


@dataclass
class MemoryLayer:
    """A byte range (of fixed ``size``) shared over time by several plans."""

    size: int
    items: list[LocalPlan] = field(default_factory=list)
    #: Byte offset of each occupant inside the layer, parallel to ``items``.
    offsets: list[int] = field(default_factory=list)
    #: Latest free time of any occupant (Algorithm 1's ``end``).
    end: int = -1
    #: Absolute base address, assigned by the global planner.
    base: int = 0
    #: Occupants that share their window with another, side by side in bytes.
    subrange_insertions: int = 0
    #: The windows in which any byte of the layer is occupied: disjoint, so one
    #: order sorts both the starts and the ends.
    _starts: list[int] = field(default_factory=list, repr=False)
    _ends: list[int] = field(default_factory=list, repr=False)

    def find_offset(self, plan: LocalPlan, *, whole_height: bool = True) -> tuple[int, int] | None:
        """``(slack, offset)`` of where ``plan`` fits through its window, or None.

        ``whole_height`` asks for a window in which the layer holds nothing
        (offset 0, the slack is the layer's spare height): one bisect.  Without
        it the answer is the tightest byte range that no occupant overlapping
        the window touches, lowest offset first among equals.
        """
        slack = self.size - plan.size
        if slack < 0:
            return None
        start, end = plan.start_time, plan.end_time
        if whole_height:
            # The first busy window that ends after the plan starts must start after it ends.
            slot = bisect_right(self._ends, start)
            return (slack, 0) if slot == len(self._starts) or self._starts[slot] >= end else None
        taken = sorted(
            [
                (offset, offset + item.size)
                for item, offset in zip(self.items, self.offsets)
                if item.start_time < end and start < item.end_time
            ]
        )
        best = None
        cursor = 0
        for low, high in (*taken, (self.size, self.size)):
            spare = low - cursor - plan.size
            if spare >= 0 and (best is None or spare < best[0]):
                best = (spare, cursor)
            if high > cursor:
                cursor = high
        return best

    def place(self, plan: LocalPlan, offset: int = 0) -> None:
        """Add an occupant at an offset :meth:`find_offset` returned for it."""
        first = bisect_right(self._ends, plan.start_time)
        last = bisect_left(self._starts, plan.end_time, first)
        start, end = plan.start_time, plan.end_time
        if first < last:  # shares its window: the busy windows it overlaps become one
            self.subrange_insertions += 1
            start, end = min(start, self._starts[first]), max(end, self._ends[last - 1])
        self._starts[first:last] = [start]
        self._ends[first:last] = [end]
        self.items.append(plan)
        self.offsets.append(offset)
        if plan.end_time > self.end:
            self.end = plan.end_time

    def idle_share(self, horizon: int) -> float:
        """Share of the layer's bytes x ``horizon`` ticks that no occupant holds."""
        held = sum(item.size * (item.end_time - item.start_time) for item in self.items)
        return 1 - held / max(self.size * horizon, 1)


def group_by_size(plans: list[LocalPlan]) -> dict[int, list[LocalPlan]]:
    """Partition local plans into HomoSize groups keyed by their size."""
    groups: dict[int, list[LocalPlan]] = defaultdict(list)
    for plan in plans:
        if plan.num_requests == 0:
            continue
        groups[plan.size].append(plan)
    return dict(groups)


def construct_memory_layers(plans: list[LocalPlan], size: int) -> list[MemoryLayer]:
    """Algorithm 1: minimal greedy layering of same-size plans.

    Plans are sorted by allocation (start) time; each plan is appended to the
    layer whose current ``end`` is the largest value still smaller than the
    plan's start time.  This minimises intra-layer idle gaps and, because the
    strategy is equivalent to interval-partitioning, uses the minimum possible
    number of layers.  "Free by the plan's start" is asked with the query
    Requests Insertion uses, so it stays true whatever a layer already holds.
    """
    if any(plan.size > size for plan in plans):
        raise ValueError("a plan is larger than the layer size it is being packed into")
    layers: list[MemoryLayer] = []
    for plan in sorted(plans, key=lambda p: (p.start_time, p.end_time)):
        best: MemoryLayer | None = None
        for layer in layers:
            if layer.find_offset(plan) is not None and (best is None or layer.end > best.end):
                best = layer
        if best is None:
            best = MemoryLayer(size=size)
            layers.append(best)
        best.place(plan)
    return layers
