"""Structure-of-arrays (columnar) storage for allocation-trace events.

The object event model (:class:`repro.core.events.TraceEvent`) is ergonomic
but costs one Python object per event -- at production scale (millions of
events per rank) that makes every analytics pass, replay, and serialization
walk millions of attribute lookups.  This module stores one trace as nine
parallel ``int`` lists instead -- the very lists the trace generator (or
:meth:`repro.workloads.trace.Trace.load`) appended to, kept without a copy:

``kind``         0 = alloc, 1 = free (:data:`KIND_CODES`)
``req_id``       the request id (tensor id)
``size``         bytes requested
``time``         logical timestamp
``phase_index``  ``Phase.index`` of the emitting phase
``module_index`` index into the interned :attr:`TraceColumns.modules` table
``dyn``          1 when the size is only known at runtime
``category``     index into :data:`CATEGORIES` (``TensorCategory`` order)
``tag_index``    index into the interned :attr:`TraceColumns.tags` table

Strings (module paths, tags) are interned into per-trace tables so the
columns stay plain ints.  :class:`repro.workloads.trace.Trace` keeps its
object API as a thin lazy view over these columns: objects are materialized
only when someone actually touches ``trace.events``.

Analytics (peaks, histograms, byte totals) are single passes over the lists,
and the alloc/free pairing and the peaks are memoised per instance; every
reader sees plain Python ints and lists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import le, lt
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.core.events import EventKind, MemoryRequest, Phase, TensorCategory, TraceEvent

#: Event-kind codes (column ``kind``).
ALLOC = 0
FREE = 1
KIND_CODES = {EventKind.ALLOC: ALLOC, EventKind.FREE: FREE}
KINDS = (EventKind.ALLOC, EventKind.FREE)

#: Category codes follow the declaration order of :class:`TensorCategory`,
#: which is part of the serialization contract and stable.
CATEGORIES: tuple[TensorCategory, ...] = tuple(TensorCategory)
CATEGORY_CODES = {category: code for code, category in enumerate(CATEGORIES)}
COMM_BUFFER_CODE = CATEGORY_CODES[TensorCategory.COMM_BUFFER]
KV_CACHE_CODE = CATEGORY_CODES[TensorCategory.KV_CACHE]


class ColumnBuilder:
    """Append-only accumulator the trace generator emits events into.

    Appends are plain ``list.append``; :meth:`build` hands the lists to the
    trace as they are, so nothing may append after it.
    """

    __slots__ = (
        "kind", "req_id", "size", "time", "phase_index", "module_index",
        "dyn", "category", "tag_index", "_modules", "_tags",
    )

    def __init__(self) -> None:
        self.kind: list[int] = []
        self.req_id: list[int] = []
        self.size: list[int] = []
        self.time: list[int] = []
        self.phase_index: list[int] = []
        self.module_index: list[int] = []
        self.dyn: list[int] = []
        self.category: list[int] = []
        self.tag_index: list[int] = []
        self._modules: dict[str, int] = {}
        self._tags: dict[str, int] = {}

    def intern_module(self, module: str) -> int:
        index = self._modules.get(module)
        if index is None:
            index = len(self._modules)
            self._modules[module] = index
        return index

    def intern_tag(self, tag: str) -> int:
        index = self._tags.get(tag)
        if index is None:
            index = len(self._tags)
            self._tags[tag] = index
        return index

    def append(
        self,
        kind: int,
        req_id: int,
        size: int,
        time: int,
        phase_index: int,
        module: str,
        dyn: bool,
        category: int,
        tag: str,
    ) -> None:
        self.kind.append(kind)
        self.req_id.append(req_id)
        self.size.append(size)
        self.time.append(time)
        self.phase_index.append(phase_index)
        self.module_index.append(self.intern_module(module))
        self.dyn.append(1 if dyn else 0)
        self.category.append(category)
        self.tag_index.append(self.intern_tag(tag))

    def __len__(self) -> int:
        return len(self.kind)

    def build(self) -> "TraceColumns":
        return TraceColumns(
            kind=self.kind,
            req_id=self.req_id,
            size=self.size,
            time=self.time,
            phase_index=self.phase_index,
            module_index=self.module_index,
            dyn=self.dyn,
            category=self.category,
            tag_index=self.tag_index,
            modules=tuple(self._modules),
            tags=tuple(self._tags),
        )


class RequestColumns(NamedTuple):
    """The paired requests of one trace as parallel int lists.

    Row ``i`` is the paper's ``m := (s, t_s, t_e, p_s, p_e, dyn)`` plus the
    request id, phases by ``Phase.index``; the first four columns are the
    planner's packing key.  A table read off a trace is sorted by
    ``(alloc_time, req_id)``; one built from request objects keeps their order.
    """

    alloc_time: list[int]
    req_id: list[int]
    size: list[int]
    free_time: list[int]
    alloc_phase: list[int]
    free_phase: list[int]
    dyn: list[int]

    @classmethod
    def from_requests(cls, requests: Iterable[MemoryRequest]) -> "RequestColumns":
        rows = [
            (m.alloc_time, m.req_id, m.size, m.free_time,
             m.alloc_phase.index, m.free_phase.index, int(m.dyn))
            for m in requests
        ]
        return cls(*map(list, zip(*rows))) if rows else cls([], [], [], [], [], [], [])


class HomoLayerGroup(NamedTuple):
    """One §5.2 HomoLayer group: the dynamic requests sharing ``(l_s, l_e)``."""

    #: ``(alloc module, free module)``; every member's key is this one tuple.
    key: tuple[str, str]
    #: Member request ids, in request order.
    req_ids: list[int]
    #: Earliest alloc time and latest free time of the members.
    first_alloc: int
    last_free: int


def group_homolayers(rows: Iterable[tuple[int, int, tuple[str, str], int]]) -> list[HomoLayerGroup]:
    """Group ``(alloc_time, req_id, key, free_time)`` rows of dynamic requests by key.

    Groups come out in the order their first member appears in ``rows``.
    """
    groups: dict[tuple[str, str], list] = {}
    for alloc_time, req_id, key, free_time in rows:
        group = groups.get(key)
        if group is None:
            groups[key] = [key, [req_id], alloc_time, free_time]
            continue
        group[1].append(req_id)
        if alloc_time < group[2]:
            group[2] = alloc_time
        if free_time > group[3]:
            group[3] = free_time
    return [HomoLayerGroup(*group) for group in groups.values()]


@dataclass(frozen=True)
class Pairing:
    """Alloc/free pairing of a trace, when it is *simple*.

    A trace pairs simply when every request id is allocated at most once,
    freed at most once (after its allocation, with the same size), and every
    free has a matching allocation.  Generator traces always qualify;
    hand-built pathological traces (id reuse, mismatched sizes) fall back to
    the event-by-event replay loop.  A request is numbered by its *alloc
    ordinal*, the rank of its alloc event among the trace's allocations.
    """

    ok: bool
    #: Event position of each request's alloc event, by ordinal.
    alloc_pos: list[int]
    #: Event position of each request's free event, by ordinal (-1: never freed).
    free_pos: list[int]
    num_frees: int = 0
    #: Sum and minimum of the allocation sizes (0 without allocations).
    allocated_bytes: int = 0
    min_alloc_size: int = 0
    #: ``(ordinal, req_id, size)`` of the requests never freed, by ordinal.
    survivors: tuple[tuple[int, int, int], ...] = ()


#: The pairing of a trace that does not pair simply.
NOT_SIMPLE = Pairing(ok=False, alloc_pos=[], free_pos=[])


def _take(column: list[int], positions: Iterable[int]) -> list[int]:
    return list(map(column.__getitem__, positions))


class TraceColumns:
    """Immutable parallel int columns describing one trace.

    Derived quantities (peaks, pairing) are memoised: the lists are treated as
    immutable once built, exactly like :class:`Trace` itself.
    """

    __slots__ = (
        "kind", "req_id", "size", "time", "phase_index", "module_index",
        "dyn", "category", "tag_index", "modules", "tags",
        "_peaks", "_pairing_cache",
    )

    def __init__(
        self,
        *,
        kind: list[int],
        req_id: list[int],
        size: list[int],
        time: list[int],
        phase_index: list[int],
        module_index: list[int],
        dyn: list[int],
        category: list[int],
        tag_index: list[int],
        modules: tuple[str, ...],
        tags: tuple[str, ...],
    ) -> None:
        self.kind = kind
        self.req_id = req_id
        self.size = size
        self.time = time
        self.phase_index = phase_index
        self.module_index = module_index
        self.dyn = dyn
        self.category = category
        self.tag_index = tag_index
        self.modules = modules
        self.tags = tags
        #: Peak live bytes by category code (``None``: every category).
        self._peaks: dict[int | None, int] = {}
        self._pairing_cache: Pairing | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_events(cls, events: Sequence[TraceEvent]) -> "TraceColumns":
        # ``dict.setdefault(key, len(dict))`` interns in insertion order
        # (the length is evaluated before any insertion happens).
        alloc = EventKind.ALLOC
        codes = CATEGORY_CODES
        modules: dict[str, int] = {}
        tags: dict[str, int] = {}
        return cls(
            kind=[ALLOC if e.kind is alloc else FREE for e in events],
            req_id=[e.req_id for e in events],
            size=[e.size for e in events],
            time=[e.time for e in events],
            phase_index=[e.phase.index for e in events],
            module_index=[modules.setdefault(e.module, len(modules)) for e in events],
            dyn=[1 if e.dyn else 0 for e in events],
            category=[codes[e.category] for e in events],
            tag_index=[tags.setdefault(e.tag, len(tags)) for e in events],
            modules=tuple(modules),
            tags=tuple(tags),
        )

    def to_events(self, phases: Iterable[Phase]) -> list[TraceEvent]:
        """Materialize the object view (one ``TraceEvent`` per row)."""
        phase_by_index = {phase.index: phase for phase in phases}
        modules = self.modules
        tags = self.tags
        return [
            TraceEvent(
                kind=KINDS[kind],
                req_id=req_id,
                size=size,
                time=time,
                phase=phase_by_index[phase_index],
                module=modules[module_index],
                dyn=bool(dyn),
                category=CATEGORIES[category],
                tag=tags[tag_index],
            )
            for kind, req_id, size, time, phase_index, module_index, dyn, category, tag_index in zip(
                self.kind, self.req_id, self.size, self.time, self.phase_index,
                self.module_index, self.dyn, self.category, self.tag_index,
            )
        ]

    def _paired(
        self, end_of_trace: int
    ) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
        """``(alloc_pos, free_pos, alloc_time, free_time, free_phase)`` per request.

        One entry per request of a trace whose :meth:`pairing` is ``ok``, in
        ``(alloc_time, req_id)`` order: alloc-ordinal order unless the alloc
        times are not strictly ascending.  Never-freed requests (weights,
        optimizer state) have ``free_pos`` -1 and close at the end of the
        trace, in the phase of its last event.
        """
        pairing = self.pairing()
        if not pairing.ok:
            raise ValueError("trace does not pair simply; use pair_events")
        alloc_pos, free_pos = pairing.alloc_pos, pairing.free_pos
        time, phase = self.time, self.phase_index
        alloc_time = _take(time, alloc_pos)
        if not all(map(lt, alloc_time, alloc_time[1:])):
            req_id = self.req_id
            order = sorted(
                range(len(alloc_pos)), key=lambda i: (alloc_time[i], req_id[alloc_pos[i]])
            )
            alloc_pos, free_pos = _take(alloc_pos, order), _take(free_pos, order)
            alloc_time = _take(alloc_time, order)
        last_phase = 0
        if -1 in free_pos:
            last = max(time)
            last_phase = max(p for t, p in zip(time, phase) if t == last)
        free_time = [
            time[pos] if pos >= 0 else max(end_of_trace, alloc + 1)
            for alloc, pos in zip(alloc_time, free_pos)
        ]
        free_phase = [phase[pos] if pos >= 0 else last_phase for pos in free_pos]
        return alloc_pos, free_pos, alloc_time, free_time, free_phase

    def request_columns(self, *, end_of_trace: int) -> RequestColumns:
        """The paired requests as int lists: what the planner reads."""
        alloc_pos, _, alloc_time, free_time, free_phase = self._paired(end_of_trace)
        size = _take(self.size, alloc_pos)
        # What MemoryRequest checks per object, over the columns.
        if min(size, default=1) <= 0 or any(map(le, free_time, alloc_time)):
            raise ValueError("a request needs a positive size and a free_time after its alloc_time")
        return RequestColumns(
            alloc_time=alloc_time,
            req_id=_take(self.req_id, alloc_pos),
            size=size,
            free_time=free_time,
            alloc_phase=_take(self.phase_index, alloc_pos),
            free_phase=free_phase,
            dyn=_take(self.dyn, alloc_pos),
        )

    def homolayer_groups(self, *, end_of_trace: int) -> list[HomoLayerGroup]:
        """The HomoLayer groups of the ``dyn`` requests, from one pass over the pairing.

        Equal to :func:`group_homolayers` over the ``dyn`` requests of
        :meth:`to_requests` -- same keys, members and order, the same
        never-freed rule (closes at the end of the trace, in its own module)
        and the same empty-free-module rule (the alloc module) -- without
        building a request object.
        """
        pairing = self.pairing()
        if not pairing.ok:
            raise ValueError("trace does not pair simply; use pair_events")
        time, req_id, dyn = self.time, self.req_id, self.dyn
        module_index, modules = self.module_index, self.modules
        keys: dict[tuple[int, int], tuple[str, str]] = {}
        rows = []
        for alloc, free in zip(pairing.alloc_pos, pairing.free_pos):
            if not dyn[alloc]:
                continue
            opened, module = time[alloc], module_index[alloc]
            if free < 0:
                closes, closing = max(end_of_trace, opened + 1), module
            else:
                closes, closing = time[free], module_index[free]
            key = keys.get((module, closing))
            if key is None:
                key = keys[module, closing] = (
                    modules[module], modules[closing] or modules[module]
                )
            rows.append((opened, req_id[alloc], key, closes))
        rows.sort()  # request order; (alloc_time, req_id) is unique
        return group_homolayers(rows)

    def to_requests(self, phases: Mapping[int, Phase], *, end_of_trace: int) -> list[MemoryRequest]:
        """Paired memory requests of a trace whose :meth:`pairing` is ``ok``.

        Equal to :func:`repro.core.events.pair_events` over the object view
        (same field for field, same order, same never-freed closing rule),
        built from the pairing's positions without one event object.
        """
        alloc_pos, free_pos, alloc_time, free_time, free_phase = self._paired(end_of_trace)
        modules = self.modules
        tags = self.tags
        module_index = self.module_index
        alloc_module = _take(module_index, alloc_pos)
        # A never-freed request closes in its own module.
        free_module = [
            module_index[pos] if pos >= 0 else module
            for pos, module in zip(free_pos, alloc_module)
        ]
        return [
            MemoryRequest(
                req_id=req_id,
                size=size,
                alloc_time=alloc_time,
                free_time=closes,
                alloc_phase=phases[alloc_phase],
                free_phase=phases[closing_phase],
                dyn=bool(dyn),
                alloc_module=modules[alloc_module],
                free_module=modules[closing_module] or modules[alloc_module],
                category=CATEGORIES[category],
                tag=tags[tag],
            )
            for (
                req_id, size, alloc_time, closes, alloc_phase, closing_phase,
                dyn, alloc_module, closing_module, category, tag,
            ) in zip(
                _take(self.req_id, alloc_pos),
                _take(self.size, alloc_pos),
                alloc_time,
                free_time,
                _take(self.phase_index, alloc_pos),
                free_phase,
                _take(self.dyn, alloc_pos),
                alloc_module,
                free_module,
                _take(self.category, alloc_pos),
                _take(self.tag_index, alloc_pos),
            )
        ]

    # ------------------------------------------------------------------ #
    # Analytics
    # ------------------------------------------------------------------ #
    @property
    def num_events(self) -> int:
        return len(self.kind)

    def _signed_sizes(self, category: int | None = None) -> Iterator[int]:
        """``+size`` per alloc and ``-size`` per free (of one category only)."""
        return (
            size if kind == ALLOC else -size
            for kind, size, code in zip(self.kind, self.size, self.category)
            if category is None or code == category
        )

    def live_bytes(self) -> list[int]:
        """Running live bytes after each event (the allocation curve)."""
        return list(accumulate(self._signed_sizes()))

    def _peak(self, category: int | None = None) -> int:
        # Positive steps only come from allocs, so the prefix maximum is
        # always attained immediately after an alloc -- identical to the
        # object loop that only samples the peak after allocations.
        peak = self._peaks.get(category)
        if peak is None:
            peak = self._peaks[category] = max(
                accumulate(self._signed_sizes(category), initial=0)
            )
        return peak

    def peak_allocated_bytes(self) -> int:
        return self._peak()

    def comm_peak_bytes(self) -> int:
        return self._peak(COMM_BUFFER_CODE)

    def kv_peak_bytes(self) -> int:
        return self._peak(KV_CACHE_CODE)

    def total_allocated_bytes(self) -> int:
        return sum(self.allocation_sizes())

    @property
    def num_requests(self) -> int:
        return self.kind.count(ALLOC)

    @property
    def num_dynamic_requests(self) -> int:
        return sum(dyn for kind, dyn in zip(self.kind, self.dyn) if kind == ALLOC)

    def allocation_sizes(self, *, min_size: int = 0) -> list[int]:
        sizes = [size for kind, size in zip(self.kind, self.size) if kind == ALLOC]
        return [size for size in sizes if size >= min_size] if min_size else sizes

    def distinct_sizes(self, *, min_size: int = 512) -> int:
        return len({size for size in self.allocation_sizes() if size > min_size})

    def size_histogram_items(self, *, min_size: int = 0) -> list[tuple[int, int]]:
        return sorted(Counter(self.allocation_sizes(min_size=min_size)).items())

    def static_dynamic_split(self) -> tuple[int, int]:
        static = dynamic = 0
        for kind, size, dyn in zip(self.kind, self.size, self.dyn):
            if kind == ALLOC:
                if dyn:
                    dynamic += size
                else:
                    static += size
        return static, dynamic

    def category_bytes(self) -> dict[str, int]:
        totals: dict[int, int] = {}
        for kind, size, code in zip(self.kind, self.size, self.category):
            if kind == ALLOC:
                totals[code] = totals.get(code, 0) + size
        return {CATEGORIES[code].value: totals[code] for code in sorted(totals)}

    def end_time(self) -> int:
        return self.time[-1] + 1 if self.time else 0

    # ------------------------------------------------------------------ #
    # Alloc/free pairing (batch-replay support)
    # ------------------------------------------------------------------ #
    def pairing(self) -> Pairing:
        """Match frees to their allocations; memoised per trace."""
        if self._pairing_cache is None:
            self._pairing_cache = self._compute_pairing()
        return self._pairing_cache

    def _compute_pairing(self) -> Pairing:
        """One pass in trace order, with a dict from request id to alloc ordinal."""
        sizes = self.size
        ordinal_of: dict[int, int] = {}
        alloc_pos: list[int] = []
        free_pos: list[int] = []
        for pos, (kind, req_id) in enumerate(zip(self.kind, self.req_id)):
            if kind == ALLOC:
                if req_id in ordinal_of:
                    return NOT_SIMPLE  # allocated twice
                ordinal_of[req_id] = len(alloc_pos)
                alloc_pos.append(pos)
                free_pos.append(-1)
                continue
            ordinal = ordinal_of.get(req_id)
            if (
                ordinal is None  # freed without (or before) its allocation
                or free_pos[ordinal] >= 0  # freed twice
                or sizes[pos] != sizes[alloc_pos[ordinal]]
            ):
                return NOT_SIMPLE
            free_pos[ordinal] = pos
        alloc_sizes = _take(sizes, alloc_pos)
        req_ids = self.req_id
        return Pairing(
            ok=True,
            alloc_pos=alloc_pos,
            free_pos=free_pos,
            num_frees=len(sizes) - len(alloc_pos),
            allocated_bytes=sum(alloc_sizes),
            min_alloc_size=min(alloc_sizes, default=0),
            survivors=tuple(
                (ordinal, req_ids[alloc_pos[ordinal]], alloc_sizes[ordinal])
                for ordinal, pos in enumerate(free_pos)
                if pos < 0
            ),
        )
