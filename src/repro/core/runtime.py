"""Runtime Allocator (§6): static allocator + dynamic allocator + fallback.

At training time STAlloc reserves one contiguous *static memory pool* sized by
the Static Allocation Plan and serves requests as follows:

* the **Request Matcher** routes each incoming request: static requests whose
  size matches the plan go to the Static Allocator, dynamic (MoE) requests go
  to the Dynamic Allocator, anything unexpected falls back;
* the **Static Allocator** simply hands out the pre-planned address (O(1));
  if the planned range is unexpectedly busy -- a plan mismatch -- the request
  falls back instead of stomping memory;
* the **Dynamic Allocator** intersects the request's pre-computed Dynamic
  Reusable Space with the pool's currently free intervals and carves the
  best-fit candidate (Eq. 7); when nothing fits it falls back;
* the **fallback** is a PyTorch-style caching allocator on the same device,
  guaranteeing robustness for mismatches and overflow.

Reserved memory is therefore ``static pool size + fallback reserved bytes``.

A trace whose requests are exactly the validated plan's, all static, replays
as a plan lookup (:meth:`RuntimeAllocator.batch_replay`): every static request
finds its planned range free, so the end state is column arithmetic.  The
trace the plan was profiled on replays in one pass even with dynamic
requests: its static requests take their planned ranges without touching the
free list, and its dynamic ones are carved beside the live dynamic placements
alone (see the Dynamic Allocator section).
"""

from __future__ import annotations

from array import array
from itertools import compress, islice
from operator import and_, not_

from repro.allocators.base import DEFAULT_HINTS, AllocationHints, Allocator, Placement
from repro.allocators.caching import CachingAllocator, CachingAllocatorConfig
from repro.core.columns import TraceColumns
from repro.core.intervals import IntervalSet
from repro.core.plan import SynthesizedPlan
from repro.gpu.device import Device
from repro.gpu.errors import OutOfMemoryError


class RuntimeAllocator(Allocator):
    """STAlloc's runtime allocator, driven by a synthesized plan."""

    name = "stalloc"
    #: The Request Matcher routes on ``hints.dyn`` and the Dynamic Allocator
    #: reads ``hints.module``.
    reads_hints = True

    def __init__(
        self,
        device: Device,
        plan: SynthesizedPlan,
        *,
        enable_dynamic_reuse: bool = True,
        fallback_config: CachingAllocatorConfig | None = None,
        plan_validated: bool = False,
        profiled: TraceColumns | None = None,
    ):
        super().__init__()
        self.device = device
        self.plan = plan
        self.enable_dynamic_reuse = enable_dynamic_reuse
        #: ``StaticAllocationPlan.validate()`` passed on this plan at synthesis:
        #: the batch replay rests on it.
        self.plan_validated = plan_validated
        static_plan = plan.static_plan
        #: Profiled static request id -> its planned ``(address, size)``.
        self._planned = dict(zip(static_plan.req_id, zip(static_plan.address, static_plan.size)))
        #: The columns of the trace the plan was profiled on, when they are
        #: what the one-pass replay of that trace needs (see batch_replay).
        self._profiled = None
        if profiled is not None and profiled.num_events:
            pairing = profiled.pairing()
            planned = len(static_plan) + len(plan.dynamic_request_groups)
            if (
                pairing.ticks_ascend
                and pairing.min_alloc_size > 0
                and planned == len(pairing.alloc_pos)  # every request planned or grouped
            ):
                self._profiled = profiled
        self._pool_size = plan.pool_size
        self._pool_allocation = device.malloc(self._pool_size) if self._pool_size else None
        self.stats.device_malloc_calls += 1 if self._pool_allocation else 0
        #: The pool plus the fallback's segments, updated after every fallback call.
        self._reserved_bytes = self._pool_size
        #: Currently free address intervals of the static pool (``A_a``).
        self._available = IntervalSet.full(0, self._pool_size) if self._pool_size else IntervalSet()
        #: Live request id -> the ``[start, end)`` it occupies in the static pool.
        self._pool_placements: dict[int, tuple[int, int]] = {}
        self.fallback = CachingAllocator(device, fallback_config or CachingAllocatorConfig(label="stalloc-fallback"))
        self.stats.extra.update(
            {
                "static_pool_bytes": self._pool_size,
                "static_bytes": 0,
                "dynamic_pool_bytes": 0,
                "fallback_bytes": 0,
                "dynamic_fallback_bytes": 0,
            }
        )

    def placement(self, req_id: int) -> Placement:
        span = self._pool_placements.get(req_id)
        if span is None:
            return self.fallback.placement(req_id)
        start, end = span
        return Placement(pool="static", address=start, size=end - start)

    # ------------------------------------------------------------------ #
    # Request Matcher
    # ------------------------------------------------------------------ #
    def _do_allocate(self, req_id: int, size: int, hints: AllocationHints) -> None:
        if hints.dyn:
            return self._allocate_dynamic(req_id, size, hints)
        return self._allocate_static(req_id, size, hints)

    # ------------------------------------------------------------------ #
    # Static Allocator
    # ------------------------------------------------------------------ #
    def _allocate_static(self, req_id: int, size: int, hints: AllocationHints) -> None:
        address, planned_size = self._planned.get(req_id, (0, None))
        if planned_size != size:
            # The runtime request does not match the profiled plan.
            self.stats.plan_mismatches += 1
            return self._allocate_fallback(req_id, size, hints)
        end = address + size
        if not self._available.contains(address, end):
            # The planned range is busy (e.g. an earlier mismatch cascaded);
            # never stomp memory -- fall back instead.
            self.stats.plan_mismatches += 1
            return self._allocate_fallback(req_id, size, hints)
        self._available.remove(address, end)
        self._pool_placements[req_id] = (address, end)
        self.stats.extra["static_bytes"] += size

    # ------------------------------------------------------------------ #
    # Dynamic Allocator
    #
    # A request is carved from its group's reusable space intersected with
    # the pool's free list.  §5.2 builds that space from every static
    # decision whose lifespan meets the group's temporal range, so no static
    # decision live in the range lies inside it.  On the trace the plan was
    # profiled on, a static request is live exactly over its planned
    # lifespan, at its planned address, and a dynamic request lives inside
    # its group's range: while one is carved, the pool's free bytes inside
    # its space are the space minus the live *dynamic* placements.  That is
    # what the one-pass replay of that trace carves from (_replay_profiled).
    # Any other trace -- a request the profile never saw, the same-module
    # group fallback, a plan mismatch that cascades -- is carved here, from
    # the whole pool's free list.
    # ------------------------------------------------------------------ #
    def _allocate_dynamic(self, req_id: int, size: int, hints: AllocationHints) -> None:
        if not self.enable_dynamic_reuse or self._pool_size == 0:
            self.stats.extra["dynamic_fallback_bytes"] += size
            return self._allocate_fallback(req_id, size, hints)
        group_key = self.plan.dynamic_request_groups.get(req_id)
        if group_key is None:
            # Unseen dynamic request: derive the group from the module hint,
            # assuming allocation and free happen in the same module.
            group_key = (hints.module, hints.module)
        reusable = self.plan.dynamic_reusable_spaces.get(group_key)
        if reusable is None and hints.module:
            # Fall back to any group allocated from the same module.
            for (alloc_module, _free_module), space in self.plan.dynamic_reusable_spaces.items():
                if alloc_module == hints.module:
                    reusable = space
                    break
        address = self._available.carve_within(reusable, size) if reusable else None
        if address is None:
            self.stats.extra["dynamic_fallback_bytes"] += size
            return self._allocate_fallback(req_id, size, hints)
        self._pool_placements[req_id] = (address, address + size)
        self.stats.extra["dynamic_pool_bytes"] += size

    # ------------------------------------------------------------------ #
    # Fallback caching allocator
    # ------------------------------------------------------------------ #
    def _allocate_fallback(self, req_id: int, size: int, hints: AllocationHints) -> None:
        """Place through the fallback's placement step: its books are this allocator's stats."""
        stats = self.stats
        stats.fallback_allocs += 1
        stats.extra["fallback_bytes"] += size
        fallback = self.fallback
        try:
            fallback._do_allocate(req_id, size, hints)
        finally:  # a failed call may still have released cached segments
            self._reserved_bytes = self._pool_size + fallback._reserved_bytes
        stats.extra["fallback_peak_reserved"] = max(
            stats.extra.get("fallback_peak_reserved", 0), fallback._reserved_bytes
        )

    # ------------------------------------------------------------------ #
    # Free
    # ------------------------------------------------------------------ #
    def _do_free(self, req_id: int) -> None:
        span = self._pool_placements.pop(req_id, None)
        if span is None:  # the fallback serves every request the pool does not
            self.fallback._do_free(req_id)
        else:
            self._available.add(*span)

    # ------------------------------------------------------------------ #
    # Batch replay (a plan lookup, or one pass over the dynamic events)
    # ------------------------------------------------------------------ #
    def batch_replay(self, trace, *, stop_on_oom: bool = True) -> int | None:
        """Replay a trace the validated plan was made for without the event loop.

        A trace with ``dyn`` requests replays in one pass when it is the
        trace the plan was profiled on (:meth:`_replay_profiled`) and the
        replay stops on the first OOM.  That trace is known by identity: its
        columns are the ``profiled`` ones :meth:`STAlloc.build_runtime_allocator`
        hands in.  A plan loaded from the cache has no profiled trace, so
        only a cold run, whose plan was just synthesized, takes the pass; a
        warm one walks events.  A content check cannot stand in for the
        identity cheaply: the plan stores no group's temporal range, so
        proving the invariant for another trace would redo the reusable-space
        search.  An all-static trace replays as a plan lookup, as follows.

        ``validate()`` proved that no two planned requests overlap in address
        range and lifespan (half-open, frees first at a shared tick).  When
        the trace's requests are exactly the plan's rows -- same ``(req_id,
        size, alloc tick, free tick)``, a never-freed row closing after the
        last tick -- and its ticks strictly ascend, every static request of
        the event loop finds its planned range free: no mismatch, no
        fallback, no device call.  The end state is then set from the
        columns: alloc/free counts from the pairing, the peak live bytes,
        the pool as the peak reserved, and the survivors at their planned
        addresses.

        Declines (returns ``None``) for an unvalidated plan, a subclass, an
        allocator that has already served a request, a ``dyn`` request of
        any other trace, two events on one tick, and a trace whose requests
        are not the plan's.  ``stop_on_oom`` is moot for the lookup: it calls
        no allocator that can fail.
        """
        if type(self) is not RuntimeAllocator or not self.plan_validated:
            return None
        stats = self.stats
        if self._live_sizes or stats.alloc_calls or stats.free_calls:
            return None  # mid-stream state: replay event by event
        columns = trace.columns
        if 1 in columns.dyn:
            if columns is self._profiled and stop_on_oom:
                return self._replay_profiled(trace)
            return None
        pairing = columns.pairing()
        static_plan = self.plan.static_plan
        if not pairing.ticks_ascend or len(pairing.alloc_pos) != len(static_plan):
            return None
        if pairing.min_alloc_size <= 0:
            return None  # no request (nothing to batch), or one the event loop refuses
        end_of_trace = columns.end_time()
        if static_plan.request_keys(end_of_trace=end_of_trace) != columns.request_keys(
            end_of_trace=end_of_trace
        ):
            return None

        # The end state of the event loop.  Survivors are live at once, so
        # the plan keeps them disjoint; ``_planned`` maps each to its address.
        addresses = self._planned
        spans = []
        for _, req_id, size in pairing.survivors:
            address = addresses[req_id][0]
            self._pool_placements[req_id] = (address, address + size)
            spans.append((address, address + size))
        spans.sort()
        self._available = IntervalSet.gaps(spans, self._pool_size)
        self._settle_books(trace, columns.num_events)
        stats.peak_reserved = self._pool_size
        stats.extra["static_bytes"] = pairing.allocated_bytes
        return columns.num_events

    def _replay_profiled(self, trace) -> int:
        """The profiled trace's event loop, in one pass over its dynamic events.

        The placements, the fallback's calls and every counter are the event
        loop's.  What the pass leaves out rests on the Dynamic Allocator
        section's invariant.  Every static request of this trace is planned
        (checked when the allocator is built) and takes its planned range
        without a look at the free list: ``validate()`` proved two planned
        ranges disjoint in address or in lifespan, and a dynamic placement
        lies in the reusable space of a group whose range holds its
        lifespan, from which every static decision live then is excluded
        (the ticks strictly ascend, so lifespans order the events).  So a
        static event changes nothing a dynamic one reads: the pass walks the
        dynamic events alone, carving each from its reusable space minus the
        live dynamic placements (``_available`` meanwhile holds the pool
        minus those only), and books the static ones from the columns.  The
        reserved bytes change only at a fallback call, so a static
        allocation samples no new peak but the pool's own.

        An allocation the fallback cannot serve stops the pass where the
        event loop stops on an OOM; the events before it are applied and
        their count is returned.
        """
        columns = trace.columns
        routing = self.plan.dynamic_request_groups
        spaces = None
        if self.enable_dynamic_reuse and self._pool_size:
            # Each group's reusable space by group index, ``None`` where it is empty.
            spaces = [
                self.plan.dynamic_reusable_spaces.get(key) or None for key, _ in routing.groups
            ]
        # Each dynamic allocation's group, in event order.
        dynamic_allocs = map(and_, columns.dyn, map(not_, columns.kind))
        groups = iter(routing.group_indices(array("q", compress(columns.req_id, dynamic_allocs))))
        fallback, fallback_free = self._allocate_fallback, self.fallback._do_free
        free_space = self._available
        live: dict[int, tuple[int, int]] = {}  # dynamic request -> its pool span
        peak = self._reserved_bytes
        pool_bytes = fallback_bytes = 0
        applied = columns.num_events
        events = zip(columns.kind, columns.req_id, columns.size, range(applied))
        for kind, req_id, size, position in compress(events, columns.dyn):
            if kind:  # a free
                span = live.pop(req_id, None)
                if span is None:
                    fallback_free(req_id)
                else:
                    free_space.add(*span)
                continue
            group = next(groups)
            reusable = spaces[group] if spaces else None
            address = None if reusable is None else free_space.carve_within(reusable, size)
            if address is not None:
                live[req_id] = (address, address + size)
                pool_bytes += size
                continue
            fallback_bytes += size
            try:
                fallback(req_id, size, DEFAULT_HINTS)
            except OutOfMemoryError:  # the loop stops here too
                applied = position
                break
            if self._reserved_bytes > peak:
                peak = self._reserved_bytes

        stats = self.stats
        self._settle_books(trace, applied)
        # The live requests in allocation order, as the loop left them placed.
        for req_id, size in self._live_sizes.items():
            span = live.get(req_id)
            if span is None and req_id in self._planned:
                address = self._planned[req_id][0]
                span = (address, address + size)
            if span is not None:
                self._pool_placements[req_id] = span
        self._available = IntervalSet.gaps(
            sorted(self._pool_placements.values()), self._pool_size
        )
        pairing = columns.pairing()
        allocs = stats.alloc_calls
        if allocs == len(pairing.alloc_pos):
            allocated = pairing.allocated_bytes
        else:
            allocated = sum(map(columns.size.__getitem__, islice(pairing.alloc_pos, allocs)))
        extra = stats.extra
        # The applied allocations' dynamic bytes: the failed one's are not.
        dynamic = pool_bytes + fallback_bytes
        if applied < columns.num_events:
            dynamic -= columns.size[applied]
        extra["static_bytes"] += allocated - dynamic
        extra["dynamic_pool_bytes"] += pool_bytes
        extra["dynamic_fallback_bytes"] += fallback_bytes
        stats.peak_reserved = max(stats.peak_reserved, peak if allocs else 0)
        return applied

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def overhead_seconds(self) -> float:
        """STAlloc adds no per-request driver calls; only the fallback does."""
        return self.fallback.overhead_seconds()
