"""Structure-of-arrays (columnar) storage for allocation-trace events.

The object event model (:class:`repro.core.events.TraceEvent`) is ergonomic
but costs one Python object per event -- at production scale (millions of
events per rank) that makes every analytics pass, replay, and serialization
walk millions of attribute lookups.  This module stores one trace as parallel
``numpy`` ``int64`` columns instead:

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
columns stay pure ``int64``.  :class:`repro.workloads.trace.Trace` keeps its
object API as a thin lazy view over these columns: objects are materialized
only when someone actually touches ``trace.events``.

Analytics (`live_bytes`, peaks, histograms) are vectorized here and memoised
per instance; everything returns plain Python ints/lists so callers cannot
tell the difference from the old object-walking implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

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

    Appends are plain ``list.append`` (cheaper than growing numpy arrays
    element-wise); :meth:`build` converts to immutable columns once.
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
            kind=np.asarray(self.kind, dtype=np.int64),
            req_id=np.asarray(self.req_id, dtype=np.int64),
            size=np.asarray(self.size, dtype=np.int64),
            time=np.asarray(self.time, dtype=np.int64),
            phase_index=np.asarray(self.phase_index, dtype=np.int64),
            module_index=np.asarray(self.module_index, dtype=np.int64),
            dyn=np.asarray(self.dyn, dtype=np.int64),
            category=np.asarray(self.category, dtype=np.int64),
            tag_index=np.asarray(self.tag_index, dtype=np.int64),
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


@dataclass(frozen=True)
class Pairing:
    """Alloc/free pairing of a trace, when it is *simple*.

    A trace pairs simply when every request id is allocated at most once,
    freed at most once (after its allocation, with the same size), and every
    free has a matching allocation.  Generator traces always qualify;
    hand-built pathological traces (id reuse, mismatched sizes) fall back to
    the event-by-event replay loop.
    """

    ok: bool
    #: Event positions of alloc events, in trace order.
    alloc_pos: np.ndarray
    #: Event positions of free events, in trace order.
    free_pos: np.ndarray
    #: For each free event (in trace order): ordinal of its allocation among
    #: the alloc events.  Empty when ``ok`` is False.
    free_alloc_ordinal: np.ndarray
    #: Ordinals (among alloc events) of allocations never freed.
    survivor_ordinals: np.ndarray


class TraceColumns:
    """Immutable parallel int64 columns describing one trace.

    Derived quantities (live-bytes curve, pairing) are memoised: the arrays
    are treated as immutable once built, exactly like :class:`Trace` itself.
    """

    __slots__ = (
        "kind", "req_id", "size", "time", "phase_index", "module_index",
        "dyn", "category", "tag_index", "modules", "tags",
        "_live_cache", "_pairing_cache",
    )

    def __init__(
        self,
        *,
        kind: np.ndarray,
        req_id: np.ndarray,
        size: np.ndarray,
        time: np.ndarray,
        phase_index: np.ndarray,
        module_index: np.ndarray,
        dyn: np.ndarray,
        category: np.ndarray,
        tag_index: np.ndarray,
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
        self._live_cache: np.ndarray | None = None
        self._pairing_cache: Pairing | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_events(cls, events: Sequence[TraceEvent]) -> "TraceColumns":
        # Columnar construction: one comprehension per column beats a
        # row-at-a-time builder by several times on object-backed traces.
        # ``dict.setdefault(key, len(dict))`` interns in insertion order
        # (the length is evaluated before any insertion happens).
        alloc = EventKind.ALLOC
        codes = CATEGORY_CODES
        modules: dict[str, int] = {}
        tags: dict[str, int] = {}
        return cls(
            kind=np.asarray(
                [ALLOC if e.kind is alloc else FREE for e in events], dtype=np.int64
            ),
            req_id=np.asarray([e.req_id for e in events], dtype=np.int64),
            size=np.asarray([e.size for e in events], dtype=np.int64),
            time=np.asarray([e.time for e in events], dtype=np.int64),
            phase_index=np.asarray([e.phase.index for e in events], dtype=np.int64),
            module_index=np.asarray(
                [modules.setdefault(e.module, len(modules)) for e in events],
                dtype=np.int64,
            ),
            dyn=np.asarray([1 if e.dyn else 0 for e in events], dtype=np.int64),
            category=np.asarray([codes[e.category] for e in events], dtype=np.int64),
            tag_index=np.asarray(
                [tags.setdefault(e.tag, len(tags)) for e in events], dtype=np.int64
            ),
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
                self.kind.tolist(),
                self.req_id.tolist(),
                self.size.tolist(),
                self.time.tolist(),
                self.phase_index.tolist(),
                self.module_index.tolist(),
                self.dyn.tolist(),
                self.category.tolist(),
                self.tag_index.tolist(),
            )
        ]

    def _paired(self, end_of_trace: int) -> tuple[np.ndarray, ...]:
        """``(alloc_pos, free_pos, free_time, free_phase)`` per request.

        One entry per request of a trace whose :meth:`pairing` is ``ok``, in
        ``(alloc_time, req_id)`` order.  Never-freed requests (weights,
        optimizer state) have ``free_pos`` -1 and close at the end of the
        trace, in the phase of its last event.
        """
        pairing = self.pairing()
        if not pairing.ok:
            raise ValueError("trace does not pair simply; use pair_events")
        survivors = pairing.alloc_pos[pairing.survivor_ordinals]
        alloc_pos = np.concatenate((pairing.alloc_pos[pairing.free_alloc_ordinal], survivors))
        free_pos = np.concatenate((pairing.free_pos, np.full_like(survivors, -1)))
        free_time = np.concatenate(
            (self.time[pairing.free_pos], np.maximum(end_of_trace, self.time[survivors] + 1))
        )
        last_phase = self.phase_index[self.time == self.time.max()].max() if len(self.time) else 0
        free_phase = np.concatenate(
            (self.phase_index[pairing.free_pos], np.full_like(survivors, last_phase))
        )
        order = np.lexsort((self.req_id[alloc_pos], self.time[alloc_pos]))
        return alloc_pos[order], free_pos[order], free_time[order], free_phase[order]

    def request_columns(self, *, end_of_trace: int) -> RequestColumns:
        """The paired requests as int lists: what the planner reads."""
        alloc_pos, _, free_time, free_phase = self._paired(end_of_trace)
        size, alloc_time = self.size[alloc_pos], self.time[alloc_pos]
        # What MemoryRequest checks per object, over the columns.
        if (size <= 0).any() or (free_time <= alloc_time).any():
            raise ValueError("a request needs a positive size and a free_time after its alloc_time")
        return RequestColumns(
            alloc_time=alloc_time.tolist(),
            req_id=self.req_id[alloc_pos].tolist(),
            size=size.tolist(),
            free_time=free_time.tolist(),
            alloc_phase=self.phase_index[alloc_pos].tolist(),
            free_phase=free_phase.tolist(),
            dyn=self.dyn[alloc_pos].tolist(),
        )

    def to_requests(
        self, phases: Mapping[int, Phase], *, end_of_trace: int, dynamic_only: bool = False
    ) -> list[MemoryRequest]:
        """Paired memory requests of a trace whose :meth:`pairing` is ``ok``.

        Equal to :func:`repro.core.events.pair_events` over the object view
        (same field for field, same order, same never-freed closing rule),
        built from the pairing's positions without one event object.
        ``dynamic_only`` keeps the ``dyn`` requests (the only ones the plan
        synthesizer needs as objects, for HomoLayer grouping).
        """
        alloc_pos, free_pos, free_time, free_phase = self._paired(end_of_trace)
        if dynamic_only:
            keep = self.dyn[alloc_pos] == 1
            alloc_pos, free_pos = alloc_pos[keep], free_pos[keep]
            free_time, free_phase = free_time[keep], free_phase[keep]
        modules = self.modules
        tags = self.tags
        # A never-freed request closes in its own module (its free_pos, -1,
        # reads the last event's module, which the ``where`` discards).
        alloc_module = self.module_index[alloc_pos]
        free_module = np.where(free_pos >= 0, self.module_index[free_pos], alloc_module)
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
                self.req_id[alloc_pos].tolist(),
                self.size[alloc_pos].tolist(),
                self.time[alloc_pos].tolist(),
                free_time.tolist(),
                self.phase_index[alloc_pos].tolist(),
                free_phase.tolist(),
                self.dyn[alloc_pos].tolist(),
                alloc_module.tolist(),
                free_module.tolist(),
                self.category[alloc_pos].tolist(),
                self.tag_index[alloc_pos].tolist(),
            )
        ]

    # ------------------------------------------------------------------ #
    # Vectorized analytics
    # ------------------------------------------------------------------ #
    @property
    def num_events(self) -> int:
        return int(self.kind.shape[0])

    def signed_sizes(self) -> np.ndarray:
        return np.where(self.kind == ALLOC, self.size, -self.size)

    def live_bytes(self) -> np.ndarray:
        """Running live bytes after each event (the allocation curve)."""
        if self._live_cache is None:
            self._live_cache = np.cumsum(self.signed_sizes())
        return self._live_cache

    def peak_allocated_bytes(self) -> int:
        # Positive steps only come from allocs, so the prefix maximum is
        # always attained immediately after an alloc -- identical to the
        # object loop that only samples the peak after allocations.
        if self.num_events == 0:
            return 0
        return max(0, int(self.live_bytes().max()))

    def comm_peak_bytes(self) -> int:
        mask = self.category == COMM_BUFFER_CODE
        if not mask.any():
            return 0
        comm = self.signed_sizes()[mask]
        return max(0, int(np.cumsum(comm).max()))

    def kv_peak_bytes(self) -> int:
        mask = self.category == KV_CACHE_CODE
        if not mask.any():
            return 0
        kv = self.signed_sizes()[mask]
        return max(0, int(np.cumsum(kv).max()))

    def total_allocated_bytes(self) -> int:
        return int(self.size[self.kind == ALLOC].sum())

    @property
    def num_requests(self) -> int:
        return int((self.kind == ALLOC).sum())

    @property
    def num_dynamic_requests(self) -> int:
        return int(((self.kind == ALLOC) & (self.dyn == 1)).sum())

    def allocation_sizes(self, *, min_size: int = 0) -> list[int]:
        mask = self.kind == ALLOC
        if min_size:
            mask &= self.size >= min_size
        return self.size[mask].tolist()

    def distinct_sizes(self, *, min_size: int = 512) -> int:
        mask = (self.kind == ALLOC) & (self.size > min_size)
        return int(np.unique(self.size[mask]).shape[0])

    def size_histogram_items(self, *, min_size: int = 0) -> list[tuple[int, int]]:
        mask = self.kind == ALLOC
        if min_size:
            mask &= self.size >= min_size
        values, counts = np.unique(self.size[mask], return_counts=True)
        return list(zip(values.tolist(), counts.tolist()))

    def static_dynamic_split(self) -> tuple[int, int]:
        alloc = self.kind == ALLOC
        dynamic = int(self.size[alloc & (self.dyn == 1)].sum())
        static = int(self.size[alloc & (self.dyn == 0)].sum())
        return static, dynamic

    def category_bytes(self) -> dict[str, int]:
        alloc = self.kind == ALLOC
        totals: dict[str, int] = {}
        present = np.unique(self.category[alloc])
        for code in present.tolist():
            total = int(self.size[alloc & (self.category == code)].sum())
            totals[CATEGORIES[code].value] = total
        return totals

    def end_time(self) -> int:
        if self.num_events == 0:
            return 0
        return int(self.time[-1]) + 1

    # ------------------------------------------------------------------ #
    # Alloc/free pairing (batch-replay support)
    # ------------------------------------------------------------------ #
    def pairing(self) -> Pairing:
        """Match frees to their allocations; memoised per trace."""
        if self._pairing_cache is None:
            self._pairing_cache = self._compute_pairing()
        return self._pairing_cache

    def _compute_pairing(self) -> Pairing:
        alloc_pos = np.flatnonzero(self.kind == ALLOC)
        free_pos = np.flatnonzero(self.kind == FREE)
        empty = np.empty(0, dtype=np.int64)

        def invalid() -> Pairing:
            return Pairing(
                ok=False,
                alloc_pos=alloc_pos,
                free_pos=free_pos,
                free_alloc_ordinal=empty,
                survivor_ordinals=empty,
            )

        alloc_ids = self.req_id[alloc_pos]
        free_ids = self.req_id[free_pos]
        if np.unique(alloc_ids).shape[0] != alloc_ids.shape[0]:
            return invalid()
        if np.unique(free_ids).shape[0] != free_ids.shape[0]:
            return invalid()
        order = np.argsort(alloc_ids, kind="stable")
        sorted_ids = alloc_ids[order]
        slots = np.searchsorted(sorted_ids, free_ids)
        if slots.shape[0] and (
            (slots >= sorted_ids.shape[0]).any()
            or (sorted_ids[np.minimum(slots, sorted_ids.shape[0] - 1)] != free_ids).any()
        ):
            return invalid()
        free_alloc_ordinal = order[slots] if slots.shape[0] else empty
        matched_pos = alloc_pos[free_alloc_ordinal]
        if (free_pos <= matched_pos).any():
            return invalid()
        if (self.size[free_pos] != self.size[matched_pos]).any():
            return invalid()
        freed = np.zeros(alloc_pos.shape[0], dtype=bool)
        freed[free_alloc_ordinal] = True
        survivor_ordinals = np.flatnonzero(~freed)
        return Pairing(
            ok=True,
            alloc_pos=alloc_pos,
            free_pos=free_pos,
            free_alloc_ordinal=free_alloc_ordinal,
            survivor_ordinals=survivor_ordinals,
        )
