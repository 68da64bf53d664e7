"""Allocation-plan data structures.

The Plan Synthesizer's output consists of:

* a :class:`StaticAllocationPlan` -- for every static request the start
  address ``a`` it must be placed at (``d := m + (a)`` in §5.1), held as five
  parallel int columns (``req_id / size / alloc_time / free_time / address``)
  together with the total size of the static memory pool those addresses live
  in;
* a set of *Dynamic Reusable Spaces* -- for every HomoLayer group of dynamic
  requests, the address intervals of the static pool that remain idle
  throughout that group's temporal range (§5.2).

Both are bundled in :class:`SynthesizedPlan`, which is what the Runtime
Allocator consumes.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat
from operator import add
from typing import Iterable, Iterator, Sequence

from repro.core.intervals import IntervalSet

#: The columns of a static plan, in stored order.
PLAN_COLUMNS = ("req_id", "size", "alloc_time", "free_time", "address")


@dataclass
class StaticAllocationPlan:
    """Planned addresses for every static request of one iteration."""

    req_id: list[int] = field(default_factory=list)
    size: list[int] = field(default_factory=list)
    alloc_time: list[int] = field(default_factory=list)
    free_time: list[int] = field(default_factory=list)
    address: list[int] = field(default_factory=list)
    pool_size: int = 0

    def __post_init__(self) -> None:
        if len({len(getattr(self, name)) for name in PLAN_COLUMNS}) != 1:
            raise ValueError("static plan columns differ in length")
        if self.address and min(self.address) < 0:
            raise ValueError("planned addresses must be non-negative")
        if self.pool_size == 0:  # the highest end address any row uses
            self.pool_size = max(map(add, self.address, self.size), default=0)

    @classmethod
    def from_rows(cls, rows: list[tuple], addresses: list[int], pool_size: int = 0):
        """From the planner's ``(alloc_time, req_id, size, free_time)`` rows."""
        alloc_time, req_id, size, free_time = map(list, zip(*rows)) if rows else ([], [], [], [])
        return cls(req_id, size, alloc_time, free_time, addresses, pool_size)

    def __len__(self) -> int:
        return len(self.req_id)

    def request_keys(self, *, end_of_trace: int) -> tuple[tuple[int, ...], ...]:
        """The ``req_id``, ``size``, ``alloc_time`` and ``free_time`` columns, by request id.

        A row closing after ``end_of_trace`` (a never-freed request) reads
        ``end_of_trace``: equal to :meth:`TraceColumns.request_keys` exactly
        when the plan's rows are the trace's requests.
        """
        from repro.core.columns import values_at

        at = values_at(sorted(range(len(self.req_id)), key=self.req_id.__getitem__))
        free_time = at(self.free_time)
        if free_time and max(free_time) > end_of_trace:
            free_time = tuple(map(min, free_time, repeat(end_of_trace)))
        return at(self.req_id), at(self.size), at(self.alloc_time), free_time

    def validate(self) -> None:
        """Check the fundamental planning constraint: no spatio-temporal overlap.

        No two decisions may overlap in both address range and lifespan, and
        none may end beyond ``pool_size``.  The check is a *time*-ordered
        sweep over the alloc/free ticks (frees before allocs at equal time,
        matching the half-open lifespans) that keeps the live decisions in a
        list sorted by start address.  Invariant: the live set is pairwise
        disjoint in address space -- it starts empty, and a decision only
        joins it after the check below passed.  In a disjoint
        set sorted by start address the end addresses are sorted too, so a
        new decision overlaps *some* live one iff it overlaps its immediate
        predecessor or successor: two neighbour checks behind one ``bisect``
        probe per alloc and one per free, ``O(n log n)`` comparisons however
        many decisions share an address range over time (a good plan *is*
        address reuse over time, so a check whose cost grows with the number
        of address-overlapping pairs is quadratic on real plans).  It reads
        the int columns only.
        """
        req_id, sizes, addresses = self.req_id, self.size, self.address
        count = len(req_id)
        ends = list(map(add, addresses, sizes))
        if max(ends, default=0) > self.pool_size:
            index = next(i for i in range(count) if ends[i] > self.pool_size)
            raise ValueError(
                f"decision for request {req_id[index]} ends at {ends[index]}, "
                f"beyond the pool size {self.pool_size}"
            )
        # One int per tick, ``time * 2n + slot``: row i frees in slot i and
        # allocates in slot n + i, so frees sort before allocs at equal time.
        slots = 2 * count
        ticks = [time * slots + slot for slot, time in enumerate(self.free_time)]
        ticks += [time * slots + slot for slot, time in enumerate(self.alloc_time, count)]
        ticks.sort()
        live_starts: list[int] = []
        live: list[int] = []  # row indices, parallel to live_starts
        for tick in ticks:
            index = tick % slots - count
            address = addresses[index]
            position = bisect_left(live_starts, address)
            if index < 0:
                del live_starts[position]
                del live[position]
                continue
            if position and ends[live[position - 1]] > address:
                neighbour = live[position - 1]
            elif position < len(live) and live_starts[position] < ends[index]:
                neighbour = live[position]
            else:
                live_starts.insert(position, address)
                live.insert(position, index)
                continue
            raise ValueError(
                f"memory stomping: requests {req_id[index]} and {req_id[neighbour]} "
                "overlap in both address range and lifespan"
            )

    # ------------------------------------------------------------------ #
    # Serialization (used by the sweep engine's persistent plan cache)
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> dict:
        """JSON-safe representation: the pool size and the five columns."""
        return {"pool_size": self.pool_size, **{name: getattr(self, name) for name in PLAN_COLUMNS}}

    @classmethod
    def from_json_dict(cls, data: dict) -> "StaticAllocationPlan":
        return cls(*(data[name] for name in PLAN_COLUMNS), pool_size=data["pool_size"])


class DynamicRouting(Mapping):
    """Profiled dynamic request id -> its HomoLayer-group key, with no dict per request.

    Holds the groups as ``(key, member ids)`` pairs in their order -- what a
    plan entry stores -- and, for lookups, every member id in one sorted
    ``array('q')`` beside the index of its group, searched by bisection.  A
    request belongs to one group.  Compares equal to the ``dict`` it stands
    for.
    """

    __slots__ = ("groups", "_ids", "_owners")

    def __init__(self, groups: Iterable[tuple[tuple[str, str], Sequence[int]]] = ()) -> None:
        #: ``(group key, array('q') of member ids)`` per group, in group order.
        self.groups: list[tuple[tuple[str, str], array]] = []
        ids, owners = array("q"), array("i")
        for index, (key, members) in enumerate(groups):
            if not (isinstance(members, array) and members.typecode == "q"):
                try:
                    members = array("q", members)
                except OverflowError:
                    raise ValueError(f"group {key!r} holds a request id wider than 64 bits") from None
            self.groups.append((tuple(key), members))
            ids.extend(members)
            owners.extend(array("i", (index,)) * len(members))
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self._ids = array("q", [ids[i] for i in order])
        self._owners = array("i", [owners[i] for i in order])

    def group_index(self, req_id: int) -> int:
        """The index in :attr:`groups` of ``req_id``'s group, or -1."""
        ids = self._ids
        index = bisect_left(ids, req_id)
        if index < len(ids) and ids[index] == req_id:
            return self._owners[index]
        return -1

    def group_indices(self, req_ids: array) -> Sequence[int]:
        """The group index of each of ``req_ids`` (-1 for an id no group holds).

        The members themselves in id order -- how a trace whose ids rise with
        its allocations allocates them -- read the owner column as it is.
        """
        if req_ids == self._ids:
            return self._owners
        return [self.group_index(req_id) for req_id in req_ids]

    def get(self, req_id: int, default=None):
        index = self.group_index(req_id)
        return default if index < 0 else self.groups[index][0]

    def __getitem__(self, req_id: int) -> tuple[str, str]:
        key = self.get(req_id)
        if key is None:
            raise KeyError(req_id)
        return key

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


@dataclass
class SynthesizedPlan:
    """Everything the Runtime Allocator needs: static plan + dynamic spaces."""

    static_plan: StaticAllocationPlan
    #: HomoLayer-group key (alloc module, free module) -> reusable address space.
    dynamic_reusable_spaces: dict[tuple[str, str], IntervalSet] = field(default_factory=dict)
    #: Profiled dynamic request id -> its HomoLayer-group key, used by the
    #: runtime Request Matcher to route dynamic requests to the right space.
    dynamic_request_groups: DynamicRouting = field(default_factory=DynamicRouting)
    #: Statistics recorded during synthesis (group counts, pool size, ...):
    #: a function of the profile and the configuration, like the plan itself.
    synthesis_info: dict = field(default_factory=dict)
    #: Wall-clock of the synthesis that produced this instance; ``None`` for a
    #: plan loaded from its stored form, which holds no timing (entries of the
    #: content-addressed plan cache are byte-identical across writers).
    synthesis_seconds: float | None = None
    #: :meth:`dumps`' text once derived.  A plan is not changed after
    #: synthesis, and the copies a plan shape's later traces get carry it.
    stored_text: str | None = field(default=None, repr=False, compare=False)

    @property
    def pool_size(self) -> int:
        return self.static_plan.pool_size

    # ------------------------------------------------------------------ #
    # Serialization (used by the sweep engine's persistent plan cache)
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> dict:
        """JSON-safe representation of the full plan (static + dynamic parts).

        The request routing is stored grouped, one ``[alloc_module,
        free_module, [req_id, ...]]`` entry per HomoLayer group.
        """
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
                [alloc_module, free_module, req_ids.tolist()]
                for (alloc_module, free_module), req_ids in self.dynamic_request_groups.groups
            ],
            "synthesis_info": self.synthesis_info,
        }

    def dumps(self) -> str:
        """:meth:`to_json_dict` as one compact JSON document (derived once)."""
        if self.stored_text is None:
            self.stored_text = json.dumps(self.to_json_dict(), separators=(",", ":"))
        return self.stored_text

    @classmethod
    def from_json_dict(cls, data: dict) -> "SynthesizedPlan":
        spaces = {
            (entry["alloc_module"], entry["free_module"]): IntervalSet(
                (start, end) for start, end in entry["intervals"]
            )
            for entry in data["dynamic_reusable_spaces"]
        }
        groups = DynamicRouting(
            ((alloc_module, free_module), req_ids)
            for alloc_module, free_module, req_ids in data["dynamic_request_groups"]
        )
        return cls(
            static_plan=StaticAllocationPlan.from_json_dict(data["static_plan"]),
            dynamic_reusable_spaces=spaces,
            dynamic_request_groups=groups,
            synthesis_info=data["synthesis_info"],
        )
