"""HomoPhase grouping and TMP-guided group fusion (§5.1).

A *HomoPhase group* gathers static requests that are allocated and freed in
the same pair of computation phases.  Each group gets a *local plan*: a
relative-address layout computed by a time-ordered sweep that stacks
overlapping requests and reuses the space of requests that have already been
freed (for groups whose members all overlap this degenerates into the paper's
contiguous stacking).

Adjacent groups -- where one group's free phase equals another's allocation
phase -- are then *fused* so memory can be reused across the phase boundary.
A fusion is kept only when it raises the time-memory product (TMP, Eq. 2)
above the size-time weighted average of the two original plans (Figure 7).

Two fusion strategies are provided:

* ``"repack"`` (default): re-run the sweep over the union of both groups;
* ``"insertion"``: the paper's explicit greedy that walks the larger plan's
  member offsets and slots in the smaller plan's requests.

Both respect the same acceptance test; the ablation benchmark compares them.

Cost: the planner works on int rows ``(alloc_time, req_id, size, free_time)``
read off the profiler's columns, no object per request.  Packing ``n`` rows
is one heap push and at most one pop each plus the best-fit scans; a plan's
height, extent and TMP numerator are fixed when it is packed, so the TMP
test, the sorts and the layering read fields.  A fusion attempt costs one
repack of the merged rows, or nothing when the demand bound rejects it.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from operator import not_

from repro.core.columns import RequestColumns
from repro.core.config import FUSION_STRATEGIES
from repro.core.intervals import IntervalSet
from repro.core.plan import StaticAllocationPlan

#: One static request as the planner sees it: ``(alloc_time, req_id, size,
#: free_time)``.  Tuple order is the packing order.
Row = tuple[int, int, int, int]


@dataclass(frozen=True)
class LocalPlan:
    """A relative-address layout for a group of requests.

    Local plans are produced for HomoPhase groups and later become the members
    of HomoSize groups; the global planner finally lifts their relative
    offsets to absolute pool addresses.  A plan is never mutated once built,
    so its extents are fixed when it is: every later read is a field load.
    """

    rows: list[Row]
    #: Relative offset of each row, parallel to ``rows``.
    offsets: list[int]
    #: Height of the plan: the reserved bytes it needs (``D_g.s``).
    size: int
    start_time: int
    end_time: int
    #: ``sum(size * lifespan)`` over the rows: the TMP numerator (Eq. 2).
    memory_time: int
    #: Indices of the (earliest allocation phase, latest free phase) covered.
    phase_span: tuple[int, int] | None = None
    #: A lower bound on the height of *any* layout of these rows: bytes that
    #: are live at one instant (the packer records the peak; 0 = not known).
    demand_floor: int = 0

    @classmethod
    def from_placement(
        cls,
        rows: list[Row],
        offsets: list[int],
        phase_span: tuple[int, int] | None = None,
        demand_floor: int = 0,
    ) -> "LocalPlan":
        """A plan for rows already placed at ``offsets`` (any row order)."""
        return cls(
            rows=rows,
            offsets=offsets,
            size=max((offset + row[2] for row, offset in zip(rows, offsets)), default=0),
            start_time=min((row[0] for row in rows), default=0),
            end_time=max((row[3] for row in rows), default=0),
            memory_time=sum(row[2] * (row[3] - row[0]) for row in rows),
            phase_span=phase_span,
            demand_floor=demand_floor,
        )

    @property
    def num_requests(self) -> int:
        return len(self.rows)

    def time_memory_product(self) -> float:
        """TMP = sum(size * lifespan) / (height * group duration)  (Eq. 2)."""
        denominator = self.size * (self.end_time - self.start_time)
        if denominator <= 0:
            return 1.0
        return self.memory_time / denominator

    def validate(self) -> None:
        """Assert the plan is free of spatio-temporal conflicts (test helper)."""
        StaticAllocationPlan.from_rows(self.rows, self.offsets, self.size).validate()


def pack_requests(rows: list[Row], *, phase_span: tuple[int, int] | None = None) -> LocalPlan:
    """Lay out requests with a time-ordered best-fit sweep.

    ``rows`` must be sorted (allocation order, ties by request id).  Space
    freed by requests whose lifespan has ended is reused (best fit), otherwise
    the plan grows at the top.  Requests with fully overlapping lifespans
    therefore end up stacked contiguously -- the paper's locally optimal
    layout for HomoPhase groups -- while sequential (transient) requests reuse
    one another's space.  One heap push per request and one pop per expiry:
    ``O(n log n)`` plus the best-fit scans over the free intervals.
    """
    offsets: list[int] = []
    free = IntervalSet()
    top = end_time = memory_time = live_bytes = peak_bytes = 0
    # Min-heap of (free_time, offset, size): what expires next is on top.
    live: list[tuple[int, int, int]] = []
    for alloc_time, _, size, free_time in rows:
        # Return the space of every request that has already been freed.
        while live and live[0][0] <= alloc_time:
            _, offset, freed = heapq.heappop(live)
            free.add(offset, offset + freed)
            live_bytes -= freed
        offset = free.carve(size) if free else None
        if offset is None:
            offset = top
            top += size
        offsets.append(offset)
        heapq.heappush(live, (free_time, offset, size))
        if free_time > end_time:
            end_time = free_time
        memory_time += size * (free_time - alloc_time)
        live_bytes += size
        if live_bytes > peak_bytes and free_time > alloc_time:  # [t, t) is never live
            peak_bytes = live_bytes
    start_time = rows[0][0] if rows else 0
    return LocalPlan(
        rows, offsets, top, start_time, end_time, memory_time, phase_span, demand_floor=peak_bytes
    )


def build_homophase_groups(requests: RequestColumns) -> list[LocalPlan]:
    """Partition the static requests into HomoPhase groups and plan each locally.

    Groups repeat phase after phase, and a packing depends only on the
    sizes and the relative times of its sorted rows.  So each group is keyed
    on its rows shifted to its first alloc time, ``(alloc - t0, size, free -
    t0)``, and only the first group of a key is packed.  A repeat keeps its
    own ``rows`` and ``phase_span``, shares the packed plan's ``offsets``
    (local plans are never mutated), and shifts its start and end times.
    """
    grouped: dict[tuple[int, int], list[Row]] = defaultdict(list)
    static = list(map(not_, requests.dyn))
    phase_pairs = zip(compress(requests.alloc_phase, static), compress(requests.free_phase, static))
    static_rows = zip(*(compress(column, static) for column in requests[:4]))
    for phase_pair, row in zip(phase_pairs, static_rows):
        grouped[phase_pair].append(row)
    packed: dict[tuple, LocalPlan] = {}
    plans = []
    for phase_pair, rows in grouped.items():
        rows.sort()  # a hand-built table may be unsorted; a trace's sorts in linear time
        allocs, _, sizes, frees = zip(*rows)
        start = allocs[0]
        key = (tuple(map(start.__rsub__, allocs)), sizes, tuple(map(start.__rsub__, frees)))
        first = packed.get(key)
        if first is None:
            plan = packed[key] = pack_requests(rows, phase_span=phase_pair)
        else:
            plan = LocalPlan(
                rows, first.offsets, first.size, start, max(0, max(frees)),
                first.memory_time, phase_pair, first.demand_floor,
            )
        plans.append(plan)
    plans.sort(key=lambda plan: (plan.start_time, plan.end_time))
    return plans


def _conflicts(rows: list[Row], offsets: list[int], offset: int, row: Row) -> bool:
    """Would placing ``row`` at ``offset`` overlap a placed row in space and time?"""
    end_offset = offset + row[2]
    for placed_offset, placed in zip(offsets, rows):
        if placed_offset < end_offset and offset < placed_offset + placed[2]:
            if placed[0] < row[3] and row[0] < placed[3]:
                return True
    return False


def fuse_plans_by_insertion(larger: LocalPlan, smaller: LocalPlan) -> LocalPlan:
    """The paper's explicit fusion greedy (Figure 6, upper left).

    Walk candidate addresses starting from the lowest member offset of the
    larger plan, repeatedly placing the earliest-starting unplaced request of
    the smaller plan that fits without a spatio-temporal conflict; when
    nothing fits at the current address, jump to the next member offset.
    Requests that cannot be slotted anywhere are stacked on top, so fusion
    never loses requests.
    """
    rows = list(larger.rows)
    offsets = list(larger.offsets)
    pending = sorted(smaller.rows, key=lambda row: row[0])
    candidate_offsets = sorted(set(larger.offsets)) or [0]
    address = candidate_offsets[0]
    max_height = max(larger.size, smaller.size)

    while pending and address < max_height:
        placed_any = False
        for row in pending:
            if address + row[2] <= max_height and not _conflicts(rows, offsets, address, row):
                rows.append(row)
                offsets.append(address)
                pending.remove(row)
                address += row[2]
                placed_any = True
                break
        if not placed_any:
            next_offsets = [offset for offset in candidate_offsets if offset > address]
            if not next_offsets:
                break
            address = next_offsets[0]

    top = max((offset + row[2] for row, offset in zip(rows, offsets)), default=0)
    for row in pending:
        rows.append(row)
        offsets.append(top)
        top += row[2]
    floor = max(larger.demand_floor, smaller.demand_floor)
    return LocalPlan.from_placement(rows, offsets, _merge_phase_span(larger, smaller), floor)


def fuse_plans_by_repack(a: LocalPlan, b: LocalPlan) -> LocalPlan:
    """Fusion by re-running the sweep packer over both groups' requests.

    Both plans come out of the packer, so their rows are already in packing
    order and the union is a merge -- a concatenation when one group starts
    after the other (the usual case across a phase boundary).
    """
    first, second = (a.rows, b.rows) if a.rows <= b.rows else (b.rows, a.rows)
    if not first or first[-1] < second[0]:
        rows = first + second
    else:
        rows = list(heapq.merge(first, second))
    return pack_requests(rows, phase_span=_merge_phase_span(a, b))


def _merge_phase_span(a: LocalPlan, b: LocalPlan) -> tuple[int, int] | None:
    spans = [span for span in (a.phase_span, b.phase_span) if span is not None]
    if not spans:
        return None
    return (min(span[0] for span in spans), max(span[1] for span in spans))


def weighted_average_tmp(a: LocalPlan, b: LocalPlan) -> float:
    """Size-and-duration weighted average of two plans' TMPs (Figure 7)."""
    weight_a = max(a.size * max(a.end_time - a.start_time, 1), 1)
    weight_b = max(b.size * max(b.end_time - b.start_time, 1), 1)
    return (
        a.time_memory_product() * weight_a + b.time_memory_product() * weight_b
    ) / (weight_a + weight_b)


def attempt_fusion(a: LocalPlan, b: LocalPlan, *, strategy: str = "repack") -> LocalPlan | None:
    """Fuse two plans; return the fused plan if the TMP test accepts it.

    The fused plan's TMP numerator and duration are known before it is laid
    out, and no layout is lower than either plan's ``demand_floor``: when even
    that height cannot beat the weighted average, the pair is rejected
    without being packed.
    """
    if strategy not in FUSION_STRATEGIES:
        raise ValueError(f"unknown fusion strategy {strategy!r}")
    threshold = weighted_average_tmp(a, b)
    duration = max(a.end_time, b.end_time) - min(a.start_time, b.start_time)
    least_area = max(a.demand_floor, b.demand_floor) * duration
    if least_area > 0 and (a.memory_time + b.memory_time) / least_area <= threshold:
        return None
    if strategy == "repack":
        fused = fuse_plans_by_repack(a, b)
    else:
        larger, smaller = (a, b) if a.size >= b.size else (b, a)
        fused = fuse_plans_by_insertion(larger, smaller)
    return fused if fused.time_memory_product() > threshold else None


def fuse_adjacent_groups(
    plans: list[LocalPlan],
    *,
    strategy: str = "repack",
    enable_fusion: bool = True,
    max_group_requests: int = 20000,
) -> tuple[list[LocalPlan], int]:
    """Fuse adjacent HomoPhase groups whenever the TMP test accepts it.

    Two groups are *adjacent* when the free phase of one equals the allocation
    phase of the other.  Fusions are applied greedily, always taking the first
    acceptable pair in (plan, neighbour) index order, until no adjacent pair
    passes the acceptance test.  Returns the surviving plans and the number of
    fusions performed.  ``max_group_requests`` caps the size of a fused group
    to bound planning time on extreme traces.

    Local plans are never mutated after packing, which makes a rejection a
    pure function of the pair: it is remembered, and the pair is packed once.
    So after a fusion the only pairs not yet judged are those of the fused
    plan, and the scan resumes at the first plan that gained it as a
    neighbour (or at the fused plan itself) instead of starting over.
    """
    if not enable_fusion:
        return list(plans), 0
    working: list[LocalPlan | None] = list(plans)
    fused_count = 0
    # Keyed by object identity; the value holds both plans so that neither id
    # can be recycled by a later fused plan while the entry exists.
    rejected: dict[tuple[int, int], tuple[LocalPlan, LocalPlan]] = {}
    by_start_phase: dict[int, list[int]] = defaultdict(list)
    for index, plan in enumerate(working):
        if plan.phase_span is not None:
            by_start_phase[plan.phase_span[0]].append(index)
    index = 0
    while index < len(working):
        plan = working[index]
        fused = None
        if plan is not None and plan.phase_span is not None:
            for other_index in by_start_phase.get(plan.phase_span[1], ()):
                other = working[other_index]
                if other is plan:
                    continue
                if plan.num_requests + other.num_requests > max_group_requests:
                    continue
                if (id(plan), id(other)) in rejected:
                    continue
                fused = attempt_fusion(plan, other, strategy=strategy)
                if fused is not None:
                    break
                rejected[(id(plan), id(other))] = (plan, other)
        if fused is None:
            index += 1
            continue
        fused_count += 1
        working[index] = fused
        working[other_index] = None
        by_start_phase[other.phase_span[0]].remove(other_index)
        start_phase = fused.phase_span[0]
        if start_phase != plan.phase_span[0]:
            by_start_phase[plan.phase_span[0]].remove(index)
            insort(by_start_phase[start_phase], index)
        index = next(
            (
                earlier
                for earlier in range(index)
                if working[earlier] is not None
                and working[earlier].phase_span is not None
                and working[earlier].phase_span[1] == start_phase
            ),
            index,
        )
    return [plan for plan in working if plan is not None], fused_count
