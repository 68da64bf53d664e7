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
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.events import MemoryRequest, Phase
from repro.core.intervals import IntervalSet


@dataclass(frozen=True)
class PlacedRequest:
    """A request placed at a relative offset inside a local plan."""

    request: MemoryRequest
    offset: int

    @property
    def end_offset(self) -> int:
        return self.offset + self.request.size


@dataclass
class LocalPlan:
    """A relative-address layout for a group of requests.

    Local plans are produced for HomoPhase groups and later become the members
    of HomoSize groups; the global planner finally lifts their relative
    offsets to absolute pool addresses.
    """

    placed: list[PlacedRequest] = field(default_factory=list)
    #: (earliest allocation phase, latest free phase) covered by the group.
    phase_span: tuple[Phase, Phase] | None = None

    @property
    def size(self) -> int:
        """Height of the plan: the reserved bytes it needs (``D_g.s``)."""
        return max((p.end_offset for p in self.placed), default=0)

    @property
    def start_time(self) -> int:
        return min((p.request.alloc_time for p in self.placed), default=0)

    @property
    def end_time(self) -> int:
        return max((p.request.free_time for p in self.placed), default=0)

    @property
    def num_requests(self) -> int:
        return len(self.placed)

    def time_memory_product(self) -> float:
        """TMP = sum(size * lifespan) / (height * group duration)  (Eq. 2)."""
        if not self.placed:
            return 1.0
        numerator = sum(p.request.memory_time() for p in self.placed)
        duration = self.end_time - self.start_time
        denominator = self.size * duration
        if denominator <= 0:
            return 1.0
        return numerator / denominator

    def conflicts(self, offset: int, request: MemoryRequest) -> bool:
        """Would placing ``request`` at ``offset`` overlap an existing member?"""
        end_offset = offset + request.size
        for placed in self.placed:
            if placed.offset < end_offset and offset < placed.end_offset:
                if placed.request.overlaps(request):
                    return True
        return False

    def add(self, request: MemoryRequest, offset: int) -> None:
        self.placed.append(PlacedRequest(request=request, offset=offset))

    def requests(self) -> list[MemoryRequest]:
        return [p.request for p in self.placed]

    def validate(self) -> None:
        """Assert the plan is free of spatio-temporal conflicts (test helper)."""
        ordered = sorted(self.placed, key=lambda p: p.offset)
        for index, placed in enumerate(ordered):
            for other in ordered[index + 1:]:
                if other.offset >= placed.end_offset:
                    break
                if placed.request.overlaps(other.request):
                    raise ValueError(
                        f"local plan conflict between requests "
                        f"{placed.request.req_id} and {other.request.req_id}"
                    )


def pack_requests(
    requests: Iterable[MemoryRequest],
    *,
    phase_span: tuple[Phase, Phase] | None = None,
) -> LocalPlan:
    """Lay out requests with a time-ordered best-fit sweep.

    Requests are processed in allocation order; space freed by requests whose
    lifespan has ended is reused (best fit), otherwise the plan grows at the
    top.  Requests with fully overlapping lifespans therefore end up stacked
    contiguously -- the paper's locally optimal layout for HomoPhase groups --
    while sequential (transient) requests reuse one another's space.
    """
    plan = LocalPlan(phase_span=phase_span)
    ordered = sorted(requests, key=lambda m: (m.alloc_time, m.req_id))
    free = IntervalSet()
    top = 0
    # Min-heap-by-free-time of (free_time, offset, size) for expiry.
    live: list[tuple[int, int, int]] = []
    for request in ordered:
        # Return the space of every request that has already been freed.
        still_live = []
        for free_time, offset, size in live:
            if free_time <= request.alloc_time:
                free.add(offset, offset + size)
            else:
                still_live.append((free_time, offset, size))
        live = still_live

        carved = free.carve(request.size, policy="best_fit")
        if carved is not None:
            offset = carved.start
        else:
            offset = top
            top += request.size
        plan.add(request, offset)
        live.append((request.free_time, offset, request.size))
    return plan


def build_homophase_groups(requests: list[MemoryRequest]) -> list[LocalPlan]:
    """Partition static requests into HomoPhase groups and plan each locally."""
    grouped: dict[tuple[Phase, Phase], list[MemoryRequest]] = defaultdict(list)
    for request in requests:
        grouped[request.phase_pair].append(request)
    plans = [
        pack_requests(members, phase_span=phase_pair)
        for phase_pair, members in grouped.items()
    ]
    plans.sort(key=lambda plan: (plan.start_time, plan.end_time))
    return plans


def fuse_plans_by_insertion(larger: LocalPlan, smaller: LocalPlan) -> LocalPlan:
    """The paper's explicit fusion greedy (Figure 6, upper left).

    Walk candidate addresses starting from the lowest member offset of the
    larger plan, repeatedly placing the earliest-starting unplaced request of
    the smaller plan that fits without a spatio-temporal conflict; when
    nothing fits at the current address, jump to the next member offset.
    Requests that cannot be slotted anywhere are stacked on top, so fusion
    never loses requests.
    """
    merged = LocalPlan(
        placed=list(larger.placed),
        phase_span=_merge_phase_span(larger, smaller),
    )
    pending = [p.request for p in sorted(smaller.placed, key=lambda p: p.request.alloc_time)]
    candidate_offsets = sorted({p.offset for p in larger.placed}) or [0]
    address = candidate_offsets[0]
    max_height = max(larger.size, smaller.size)

    while pending and address < max_height:
        placed_any = False
        for request in pending:
            if address + request.size <= max_height and not merged.conflicts(address, request):
                merged.add(request, address)
                pending.remove(request)
                address += request.size
                placed_any = True
                break
        if not placed_any:
            next_offsets = [offset for offset in candidate_offsets if offset > address]
            if not next_offsets:
                break
            address = next_offsets[0]

    top = merged.size
    for request in pending:
        merged.add(request, top)
        top += request.size
    return merged


def fuse_plans_by_repack(a: LocalPlan, b: LocalPlan) -> LocalPlan:
    """Fusion by re-running the sweep packer over both groups' requests."""
    return pack_requests(a.requests() + b.requests(), phase_span=_merge_phase_span(a, b))


def _merge_phase_span(a: LocalPlan, b: LocalPlan) -> tuple[Phase, Phase] | None:
    spans = [span for span in (a.phase_span, b.phase_span) if span is not None]
    if not spans:
        return None
    start = min((span[0] for span in spans), key=lambda phase: phase.index)
    end = max((span[1] for span in spans), key=lambda phase: phase.index)
    return (start, end)


def weighted_average_tmp(a: LocalPlan, b: LocalPlan) -> float:
    """Size-and-duration weighted average of two plans' TMPs (Figure 7)."""
    weight_a = max(a.size * max(a.end_time - a.start_time, 1), 1)
    weight_b = max(b.size * max(b.end_time - b.start_time, 1), 1)
    return (
        a.time_memory_product() * weight_a + b.time_memory_product() * weight_b
    ) / (weight_a + weight_b)


def attempt_fusion(a: LocalPlan, b: LocalPlan, *, strategy: str = "repack") -> LocalPlan | None:
    """Fuse two plans; return the fused plan if the TMP test accepts it."""
    if strategy == "repack":
        fused = fuse_plans_by_repack(a, b)
    elif strategy == "insertion":
        larger, smaller = (a, b) if a.size >= b.size else (b, a)
        fused = fuse_plans_by_insertion(larger, smaller)
    else:
        raise ValueError(f"unknown fusion strategy {strategy!r}")
    if fused.time_memory_product() > weighted_average_tmp(a, b):
        return fused
    return None


def fuse_adjacent_groups(
    plans: list[LocalPlan],
    *,
    strategy: str = "repack",
    enable_fusion: bool = True,
    max_group_requests: int = 20000,
) -> tuple[list[LocalPlan], int]:
    """Fuse adjacent HomoPhase groups whenever the TMP test accepts it.

    Two groups are *adjacent* when the free phase of one equals the allocation
    phase of the other.  Fusions are applied greedily until no adjacent pair
    passes the acceptance test.  Returns the surviving plans and the number of
    fusions performed.  ``max_group_requests`` caps the size of a fused group
    to bound planning time on extreme traces.

    Every accepted fusion restarts the scan, so pairs the TMP test already
    rejected come up again; local plans are never mutated after packing, which
    makes a rejection a pure function of the pair, so it is remembered and the
    pair is packed once.
    """
    if not enable_fusion:
        return list(plans), 0
    working: list[LocalPlan | None] = list(plans)
    fused_count = 0
    # Keyed by object identity; the value holds both plans so that neither id
    # can be recycled by a later fused plan while the entry exists.
    rejected: dict[tuple[int, int], tuple[LocalPlan, LocalPlan]] = {}
    progress = True
    while progress:
        progress = False
        by_start_phase: dict[int, list[int]] = defaultdict(list)
        for index, plan in enumerate(working):
            if plan is not None and plan.phase_span is not None:
                by_start_phase[plan.phase_span[0].index].append(index)
        for index, plan in enumerate(working):
            if plan is None or plan.phase_span is None:
                continue
            end_phase = plan.phase_span[1].index
            for other_index in by_start_phase.get(end_phase, []):
                other = working[other_index]
                if other is None or other is plan:
                    continue
                if plan.num_requests + other.num_requests > max_group_requests:
                    continue
                pair = (id(plan), id(other))
                if pair in rejected:
                    continue
                fused = attempt_fusion(plan, other, strategy=strategy)
                if fused is None:
                    rejected[pair] = (plan, other)
                    continue
                working[index] = fused
                working[other_index] = None
                fused_count += 1
                progress = True
                break
            if progress:
                break
    return [plan for plan in working if plan is not None], fused_count
