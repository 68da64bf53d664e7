"""Allocation-plan data structures.

The Plan Synthesizer's output consists of:

* a :class:`StaticAllocationPlan` -- one :class:`AllocationDecision` per static
  request, i.e. the profiled request augmented with the start address ``a`` it
  must be placed at (``d := m + (a)`` in §5.1), together with the total size
  of the static memory pool those addresses live in;
* a set of *Dynamic Reusable Spaces* -- for every HomoLayer group of dynamic
  requests, the address intervals of the static pool that remain idle
  throughout that group's temporal range (§5.2).

Both are bundled in :class:`SynthesizedPlan`, which is what the Runtime
Allocator consumes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.core.events import (
    MemoryRequest,
    Phase,
    TensorCategory,
    phase_from_dict,
    phase_to_dict,
)
from repro.core.intervals import IntervalSet


def _request_to_dict(request: MemoryRequest) -> dict:
    """Serialize a request, referring to phases by index (see the phase table)."""
    return {
        "req_id": request.req_id,
        "size": request.size,
        "alloc_time": request.alloc_time,
        "free_time": request.free_time,
        "alloc_phase": request.alloc_phase.index,
        "free_phase": request.free_phase.index,
        "dyn": request.dyn,
        "alloc_module": request.alloc_module,
        "free_module": request.free_module,
        "category": request.category.value,
        "tag": request.tag,
    }


def _request_from_dict(data: dict, phases: dict[int, Phase]) -> MemoryRequest:
    return MemoryRequest(
        req_id=data["req_id"],
        size=data["size"],
        alloc_time=data["alloc_time"],
        free_time=data["free_time"],
        alloc_phase=phases[data["alloc_phase"]],
        free_phase=phases[data["free_phase"]],
        dyn=data["dyn"],
        alloc_module=data["alloc_module"],
        free_module=data["free_module"],
        category=TensorCategory(data["category"]),
        tag=data["tag"],
    )


@dataclass(frozen=True)
class AllocationDecision:
    """A static request together with its planned start address."""

    request: MemoryRequest
    address: int

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"planned address must be non-negative, got {self.address}")

    @property
    def size(self) -> int:
        return self.request.size

    @property
    def end_address(self) -> int:
        return self.address + self.request.size

    def conflicts_with(self, other: "AllocationDecision") -> bool:
        """True when the two decisions overlap in both space and time."""
        space_overlap = self.address < other.end_address and other.address < self.end_address
        return space_overlap and self.request.overlaps(other.request)


@dataclass
class StaticAllocationPlan:
    """Planned addresses for every static request of one iteration."""

    decisions: list[AllocationDecision] = field(default_factory=list)
    pool_size: int = 0

    def __post_init__(self) -> None:
        if self.pool_size == 0 and self.decisions:
            self.pool_size = max(decision.end_address for decision in self.decisions)

    def __len__(self) -> int:
        return len(self.decisions)

    def by_request_id(self) -> dict[int, AllocationDecision]:
        """Index the plan by the profiled request id."""
        return {decision.request.req_id: decision for decision in self.decisions}

    def peak_planned_bytes(self) -> int:
        """Highest end address used by any decision (<= ``pool_size``)."""
        if not self.decisions:
            return 0
        return max(decision.end_address for decision in self.decisions)

    def validate(self) -> None:
        """Check the fundamental planning constraint: no spatio-temporal overlap.

        No two decisions may overlap in both address range and lifespan, and
        none may end beyond ``pool_size``.  The check is a *time*-ordered
        sweep over the alloc/free ticks (frees before allocs at equal time,
        matching the half-open :meth:`MemoryRequest.overlaps`) that keeps the
        live decisions in a list sorted by start address.  Invariant: the live
        set is pairwise disjoint in address space -- it starts empty, and a
        decision only joins it after the check below passed.  In a disjoint
        set sorted by start address the end addresses are sorted too, so a
        new decision overlaps *some* live one iff it overlaps its immediate
        predecessor or successor: two neighbour checks behind one ``bisect``
        probe per alloc and one per free, ``O(n log n)`` comparisons however
        many decisions share an address range over time (a good plan *is*
        address reuse over time, so a check whose cost grows with the number
        of address-overlapping pairs is quadratic on real plans).
        """
        decisions = self.decisions
        for decision in decisions:
            if decision.end_address > self.pool_size:
                raise ValueError(
                    f"decision for request {decision.request.req_id} ends at "
                    f"{decision.end_address}, beyond the pool size {self.pool_size}"
                )
        ticks = []
        for index, decision in enumerate(decisions):
            ticks.append((decision.request.free_time, 0, index))
            ticks.append((decision.request.alloc_time, 1, index))
        ticks.sort()
        live_starts: list[int] = []
        live: list[AllocationDecision] = []
        for _, is_alloc, index in ticks:
            decision = decisions[index]
            position = bisect_left(live_starts, decision.address)
            if not is_alloc:
                del live_starts[position]
                del live[position]
                continue
            for neighbour in live[max(position - 1, 0) : position + 1]:
                if decision.conflicts_with(neighbour):
                    raise ValueError(
                        "memory stomping: requests "
                        f"{decision.request.req_id} and {neighbour.request.req_id} overlap "
                        "in both address range and lifespan"
                    )
            live_starts.insert(position, decision.address)
            live.insert(position, decision)

    def allocated_time_memory(self) -> int:
        """Numerator of the plan-level time-memory product."""
        return sum(decision.request.memory_time() for decision in self.decisions)

    # ------------------------------------------------------------------ #
    # Serialization (used by the sweep engine's persistent plan cache)
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> dict:
        """JSON-safe representation (phases deduplicated into a table)."""
        phases: dict[int, Phase] = {}
        for decision in self.decisions:
            for phase in (decision.request.alloc_phase, decision.request.free_phase):
                phases.setdefault(phase.index, phase)
        return {
            "pool_size": self.pool_size,
            "phases": [phase_to_dict(phases[index]) for index in sorted(phases)],
            "decisions": [
                {"address": decision.address, "request": _request_to_dict(decision.request)}
                for decision in self.decisions
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "StaticAllocationPlan":
        phases = {entry["index"]: phase_from_dict(entry) for entry in data["phases"]}
        decisions = [
            AllocationDecision(
                request=_request_from_dict(entry["request"], phases),
                address=entry["address"],
            )
            for entry in data["decisions"]
        ]
        return cls(decisions=decisions, pool_size=data["pool_size"])


@dataclass
class SynthesizedPlan:
    """Everything the Runtime Allocator needs: static plan + dynamic spaces."""

    static_plan: StaticAllocationPlan
    #: HomoLayer-group key (alloc module, free module) -> reusable address space.
    dynamic_reusable_spaces: dict[tuple[str, str], IntervalSet] = field(default_factory=dict)
    #: Profiled dynamic request id -> its HomoLayer-group key, used by the
    #: runtime Request Matcher to route dynamic requests to the right space.
    dynamic_request_groups: dict[int, tuple[str, str]] = field(default_factory=dict)
    #: Statistics recorded during synthesis (group counts, timings, ...).
    synthesis_info: dict = field(default_factory=dict)

    @property
    def pool_size(self) -> int:
        return self.static_plan.pool_size

    def reusable_space_for(self, alloc_module: str, free_module: str) -> IntervalSet:
        """Reusable space for a dynamic request's HomoLayer group (may be empty)."""
        return self.dynamic_reusable_spaces.get((alloc_module, free_module), IntervalSet())

    # ------------------------------------------------------------------ #
    # Serialization (used by the sweep engine's persistent plan cache)
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> dict:
        """JSON-safe representation of the full plan (static + dynamic parts)."""
        return {
            "static_plan": self.static_plan.to_json_dict(),
            "dynamic_reusable_spaces": [
                {
                    "alloc_module": alloc_module,
                    "free_module": free_module,
                    "intervals": [[iv.start, iv.end] for iv in spaces],
                }
                for (alloc_module, free_module), spaces in self.dynamic_reusable_spaces.items()
            ],
            "dynamic_request_groups": [
                [req_id, group[0], group[1]]
                for req_id, group in self.dynamic_request_groups.items()
            ],
            "synthesis_info": self.synthesis_info,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SynthesizedPlan":
        spaces = {
            (entry["alloc_module"], entry["free_module"]): IntervalSet(
                (start, end) for start, end in entry["intervals"]
            )
            for entry in data["dynamic_reusable_spaces"]
        }
        groups = {
            req_id: (alloc_module, free_module)
            for req_id, alloc_module, free_module in data["dynamic_request_groups"]
        }
        return cls(
            static_plan=StaticAllocationPlan.from_json_dict(data["static_plan"]),
            dynamic_reusable_spaces=spaces,
            dynamic_request_groups=groups,
            synthesis_info=data["synthesis_info"],
        )
