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

A layer's occupants never overlap in time, so it keeps their ``[start, end)``
windows sorted and answers "is this window free?" with one bisect; a plan's
size and extent are fields fixed when it was packed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.homophase import LocalPlan


@dataclass
class MemoryLayer:
    """A byte range (of fixed ``size``) shared over time by several plans."""

    size: int
    items: list[LocalPlan] = field(default_factory=list)
    #: Free time of the last item appended in time order (Algorithm 1's ``end``).
    end: int = -1
    #: Absolute base address, assigned by the global planner.
    base: int = 0
    #: The occupants' start and end times, each sorted (occupants are disjoint
    #: in time, so one order sorts both).
    _starts: list[int] = field(default_factory=list, repr=False)
    _ends: list[int] = field(default_factory=list, repr=False)

    def can_hold(self, plan: LocalPlan) -> bool:
        """True when ``plan`` fits spatially and does not overlap any occupant."""
        if plan.size > self.size:
            return False
        # The first occupant that ends after the plan starts must start after it ends.
        slot = bisect_right(self._ends, plan.start_time)
        return slot == len(self._starts) or self._starts[slot] >= plan.end_time

    def append(self, plan: LocalPlan) -> None:
        """Add an occupant; its window must be free (see :meth:`can_hold`)."""
        slot = bisect_right(self._ends, plan.start_time)
        self._starts.insert(slot, plan.start_time)
        self._ends.insert(slot, plan.end_time)
        self.items.append(plan)
        self.end = max(self.end, plan.end_time)

    def idle_time(self, horizon_start: int, horizon_end: int) -> int:
        """Total time within the horizon during which the layer holds nothing."""
        busy = sum(
            max(0, min(item.end_time, horizon_end) - max(item.start_time, horizon_start))
            for item in self.items
        )
        return max(0, (horizon_end - horizon_start) - busy)


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
    number of layers.
    """
    if any(plan.size > size for plan in plans):
        raise ValueError("a plan is larger than the layer size it is being packed into")
    layers: list[MemoryLayer] = []
    for plan in sorted(plans, key=lambda p: (p.start_time, p.end_time)):
        best: MemoryLayer | None = None
        for layer in layers:
            if layer.end <= plan.start_time and (best is None or layer.end > best.end):
                best = layer
        if best is None:
            best = MemoryLayer(size=size)
            layers.append(best)
        best.append(plan)
    return layers
