"""Common allocator interface and statistics.

Every allocator in this repository -- the PyTorch-style baselines and
STAlloc's runtime allocator alike -- implements :class:`Allocator`.  The
replay simulator drives allocators exclusively through this interface, keyed
by the trace's request ids, which keeps the experiment harness completely
allocator-agnostic.
"""

from __future__ import annotations

import abc
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

from repro.core.events import Phase, TensorCategory


@dataclass(frozen=True)
class AllocationHints:
    """Side-band information accompanying an allocation request.

    PyTorch's pluggable-allocator interface only passes a size and a stream;
    STAlloc additionally observes the current computation phase and module
    through its lightweight instrumentation hooks (§8).  The hints carry that
    information; baseline allocators are free to ignore it.
    """

    phase: Phase | None = None
    module: str = ""
    dyn: bool = False
    category: TensorCategory = TensorCategory.OTHER
    stream: int = 0


#: The hints of a request that carries none (immutable, so one is enough).
DEFAULT_HINTS = AllocationHints()


class Placement(NamedTuple):
    """Where a live request currently resides.

    ``pool`` identifies the backing region (e.g. ``"static"``, ``"caching"``,
    ``"segment:3"``); ``address`` is the byte offset inside that pool.
    Allocators keep their own plain records and build one only when asked,
    through :meth:`Allocator.placement`: the public :meth:`Allocator.allocate`
    returns it, while a trace replay never builds one.
    """

    pool: str
    address: int
    size: int


@dataclass
class AllocatorStats:
    """Operation counters shared by every allocator implementation."""

    alloc_calls: int = 0
    free_calls: int = 0
    device_malloc_calls: int = 0
    device_free_calls: int = 0
    vmm_ops: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    splits: int = 0
    merges: int = 0
    stitches: int = 0
    fallback_allocs: int = 0
    plan_mismatches: int = 0
    peak_reserved: int = 0
    peak_allocated: int = 0
    extra: dict = field(default_factory=dict)

    def snapshot(self) -> dict:
        """Plain-dict view used in experiment reports."""
        data = {
            "alloc_calls": self.alloc_calls,
            "free_calls": self.free_calls,
            "device_malloc_calls": self.device_malloc_calls,
            "device_free_calls": self.device_free_calls,
            "vmm_ops": self.vmm_ops,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "splits": self.splits,
            "merges": self.merges,
            "stitches": self.stitches,
            "fallback_allocs": self.fallback_allocs,
            "plan_mismatches": self.plan_mismatches,
            "peak_reserved": self.peak_reserved,
            "peak_allocated": self.peak_allocated,
        }
        data.update(self.extra)
        return data


class Allocator(abc.ABC):
    """Abstract GPU memory allocator driven by the replay simulator.

    A subclass implements the placement step -- :meth:`_do_allocate` and
    :meth:`_do_free` -- and :meth:`placement`, and keeps ``_reserved_bytes``
    (the device memory it holds, ``M_r``) current as a plain int.  The public
    :meth:`allocate` / :meth:`free` wrap the placement step in the checks and
    the bookkeeping shared by every allocator: ``_live_sizes``, the running
    ``_allocated_bytes`` (the sum of live *requested* sizes, so the
    memory-efficiency metric is computed identically for every allocator)
    and the call counters and peaks of :attr:`stats`.  A trace replay whose
    requests pair simply calls the placement step directly and takes that
    bookkeeping from the trace (:mod:`repro.simulator.replay`).
    """

    #: Short identifier used in experiment tables (subclasses override).
    name: str = "allocator"
    #: Whether :meth:`_do_allocate` reads its hints.  A replay hands an
    #: allocator that does not one constant :class:`AllocationHints`.
    reads_hints: bool = False

    def __init__(self) -> None:
        self.stats = AllocatorStats()
        self._live_sizes: dict[int, int] = {}
        self._allocated_bytes = 0
        self._reserved_bytes = 0

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _do_allocate(self, req_id: int, size: int, hints: AllocationHints) -> None:
        """Place ``size`` bytes for request ``req_id`` (``size`` positive, ``req_id`` not live)."""

    @abc.abstractmethod
    def _do_free(self, req_id: int) -> None:
        """Free the memory backing live request ``req_id``."""

    @abc.abstractmethod
    def placement(self, req_id: int) -> Placement:
        """Where live request ``req_id`` resides."""

    @property
    def reserved_bytes(self) -> int:
        """Device memory currently reserved by this allocator (``M_r``)."""
        return self._reserved_bytes

    # ------------------------------------------------------------------ #
    # Template methods (bookkeeping shared by all allocators)
    # ------------------------------------------------------------------ #
    def allocate(self, req_id: int, size: int, hints: AllocationHints | None = None) -> Placement:
        """Serve an allocation request.

        Raises :class:`repro.gpu.errors.OutOfMemoryError` when the request
        cannot be satisfied.
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        live_sizes = self._live_sizes
        if req_id in live_sizes:
            raise ValueError(f"request {req_id} is already live")
        size = int(size)
        self._do_allocate(req_id, size, hints or DEFAULT_HINTS)
        stats = self.stats
        stats.alloc_calls += 1
        live_sizes[req_id] = size
        allocated = self._allocated_bytes = self._allocated_bytes + size
        if allocated > stats.peak_allocated:
            stats.peak_allocated = allocated
        if self._reserved_bytes > stats.peak_reserved:
            stats.peak_reserved = self._reserved_bytes
        return self.placement(req_id)

    def free(self, req_id: int) -> None:
        """Free a previously allocated request."""
        if req_id not in self._live_sizes:
            raise KeyError(f"request {req_id} is not live")
        self._do_free(req_id)
        self.stats.free_calls += 1
        self._allocated_bytes -= self._live_sizes.pop(req_id)

    # ------------------------------------------------------------------ #
    # Replay hooks
    # ------------------------------------------------------------------ #
    def batch_replay(self, trace, *, stop_on_oom: bool = True) -> int | None:
        """Apply a whole trace in one batched step, when possible.

        Returns the number of events applied after mutating this allocator
        and its device into *exactly* the end state the event-by-event
        replay loop would have produced -- same stats, same live
        allocations, same peaks -- or ``None`` when the trace needs per-event
        replay: the allocator was already used, an allocation would fail in
        a way the batch cannot model, per-event hints drive the allocator's
        decisions, or the trace's alloc/free pairing is not simple.  Fewer
        events than the trace holds means the allocation at that position
        ran out of memory and, ``stop_on_oom`` holding, the batch stopped
        there as the loop does: the events before it are applied.  The
        default can never batch-replay.
        """
        return None

    def _settle_books(self, trace, events: int) -> None:
        """Book what the checked loop would have for the trace's first ``events`` events.

        The trace pairs simply, no request was live before the replay and
        every one of those events was applied: their allocations are
        counted, the rest are frees, and the requests they leave live are
        this allocator's.
        """
        columns = trace.columns
        pairing = columns.pairing()
        if events == columns.num_events:
            allocs = len(pairing.alloc_pos)
            live = {req_id: size for _, req_id, size in pairing.survivors}
            peak = columns.peak_allocated_bytes()
        else:
            allocs = bisect_left(pairing.alloc_pos, events)
            alloc_pos = islice(pairing.alloc_pos, allocs)
            live = {
                columns.req_id[pos]: columns.size[pos]
                for pos, free in zip(alloc_pos, pairing.free_pos)
                if free < 0 or free >= events
            }
            peak = columns.peak_allocated_bytes(events)
        stats = self.stats
        stats.alloc_calls += allocs
        stats.free_calls += events - allocs
        stats.peak_allocated = max(stats.peak_allocated, peak)
        self._live_sizes.update(live)
        self._allocated_bytes = sum(live.values())

    @abc.abstractmethod
    def overhead_seconds(self) -> float:
        """Extra wall-clock time this allocator added to one iteration.

        Used by the throughput model: each allocator prices the device and
        virtual-memory calls it issued.
        """
