"""Structure-of-arrays (columnar) storage for allocation-trace events.

A trace is stored as nine fixed-width stdlib :class:`array.array` columns
(39 bytes an event), filled by the trace generator (or
:meth:`repro.workloads.trace.Trace.load`) through :class:`ColumnBuilder`.
This is the only representation of a trace: there is no event object.

``kind``         ``b``  0 = alloc, 1 = free (order of :data:`KINDS`)
``req_id``       ``q``  the request id (tensor id)
``size``         ``q``  bytes requested
``time``         ``q``  logical timestamp
``phase_index``  ``i``  ``Phase.index`` of the emitting phase
``module_index`` ``i``  index into the interned :attr:`TraceColumns.modules` table
``dyn``          ``b``  1 when the size is only known at runtime
``category``     ``b``  index into :data:`CATEGORIES` (``TensorCategory`` order)
``tag_index``    ``i``  index into the interned :attr:`TraceColumns.tags` table

Strings (module paths, tags) are interned into per-trace tables so the
columns stay fixed-width ints.

Analytics (peaks, histograms, byte totals) are single passes over the columns,
and the alloc/free pairing and the peaks are memoised per instance.  The
paired memory requests -- the paper's ``m := (s, t_s, t_e, p_s, p_e, dyn)``
(§4) -- are columns too (:class:`RequestColumns`), as are the pairing's
positions and the HomoLayer member ids; reading an element yields a plain
Python ``int``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate, compress, islice
from operator import itemgetter, le, lt, not_
from struct import error as struct_error
from struct import pack
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.core.events import EventKind, TensorCategory

#: Event-kind codes (column ``kind``).
ALLOC = 0
FREE = 1
KINDS = (EventKind.ALLOC, EventKind.FREE)

#: Category codes follow the declaration order of :class:`TensorCategory`,
#: which is part of the serialization contract and stable.
CATEGORIES: tuple[TensorCategory, ...] = tuple(TensorCategory)
CATEGORY_CODES = {category: code for code, category in enumerate(CATEGORIES)}
COMM_BUFFER_CODE = CATEGORY_CODES[TensorCategory.COMM_BUFFER]
KV_CACHE_CODE = CATEGORY_CODES[TensorCategory.KV_CACHE]

#: ``(column, array typecode)`` of every trace column, in stored order.
COLUMN_TYPES: tuple[tuple[str, str], ...] = (
    ("kind", "b"),
    ("req_id", "q"),
    ("size", "q"),
    ("time", "q"),
    ("phase_index", "i"),
    ("module_index", "i"),
    ("dyn", "b"),
    ("category", "b"),
    ("tag_index", "i"),
)
COLUMN_NAMES = tuple(name for name, _ in COLUMN_TYPES)

#: Events a :class:`ColumnBuilder` buffers in lists before extending its arrays
#: (``list.append`` is several times cheaper than ``array.append``).
_FLUSH_EVENTS = 4096


def _width_error(name: str, typecode: str, values: Sequence, first_event: int) -> ValueError:
    """The one-line error for the first of ``values`` that ``typecode`` cannot hold."""
    for offset, value in enumerate(values):
        try:
            array(typecode, (value,))
        except (OverflowError, TypeError):
            return ValueError(
                f"trace column {name!r} (typecode {typecode!r}) cannot hold "
                f"{value!r} at event {first_event + offset}"
            )
    return ValueError(f"trace column {name!r} (typecode {typecode!r}) rejected its values")


def _typed_column(name: str, typecode: str, values: Sequence[int]) -> array:
    """``values`` as an ``array(typecode)``; an array of that typecode is kept as is.

    A value the column cannot hold raises a one-line :class:`ValueError`
    naming the column and the event index.
    """
    if isinstance(values, array) and values.typecode == typecode:
        return values
    try:
        return array(typecode, values)
    except (OverflowError, TypeError):
        raise _width_error(name, typecode, list(values), 0) from None


class ColumnBuilder:
    """Append-only accumulator that events are emitted into, as plain ints.

    The one writer of trace columns: the trace generator and
    :meth:`repro.workloads.trace.Trace.load`'s JSON-lines reader both append
    through :meth:`append`.  Module paths and tags reach it as indices into
    :attr:`modules` and :attr:`tags`, which the caller fills in first-seen
    order (``table.setdefault(name, len(table))``); the order is part of the
    trace's content.  Appends go to plain lists, which are moved into the
    typed columns every few thousand events; :meth:`build` flushes the rest
    and hands the arrays to the trace, so nothing may append after it.
    """

    __slots__ = (
        "kind", "req_id", "size", "time", "phase_index", "module_index",
        "dyn", "category", "tag_index", "modules", "tags", "_columns",
    )

    def __init__(self) -> None:
        # Pending (not yet flushed) values, one list per column.
        self.kind: list[int] = []
        self.req_id: list[int] = []
        self.size: list[int] = []
        self.time: list[int] = []
        self.phase_index: list[int] = []
        self.module_index: list[int] = []
        self.dyn: list[int] = []
        self.category: list[int] = []
        self.tag_index: list[int] = []
        #: Interning tables: string -> index, in first-seen order.
        self.modules: dict[str, int] = {}
        self.tags: dict[str, int] = {}
        self._columns = tuple(array(typecode) for _, typecode in COLUMN_TYPES)

    def append(
        self,
        kind: int,
        req_id: int,
        size: int,
        time: int,
        phase_index: int,
        module_index: int,
        dyn: int,
        category: int,
        tag_index: int,
    ) -> None:
        self.kind.append(kind)
        self.req_id.append(req_id)
        self.size.append(size)
        self.time.append(time)
        self.phase_index.append(phase_index)
        self.module_index.append(module_index)
        self.dyn.append(dyn)
        self.category.append(category)
        self.tag_index.append(tag_index)
        if len(self.kind) >= _FLUSH_EVENTS:
            self._flush()

    def _flush(self) -> None:
        flushed = len(self._columns[0])
        for (name, typecode), column in zip(COLUMN_TYPES, self._columns):
            pending = getattr(self, name)
            try:
                # struct packs a list of ints into machine values (range
                # checks included) several times faster than array() does.
                column.frombytes(pack(f"{len(pending)}{typecode}", *pending))
            except struct_error:
                raise _width_error(name, typecode, pending, flushed) from None
            pending.clear()

    def __len__(self) -> int:
        return len(self._columns[0]) + len(self.kind)

    def build(self) -> "TraceColumns":
        self._flush()
        return TraceColumns(
            **dict(zip(COLUMN_NAMES, self._columns)),
            modules=tuple(self.modules),
            tags=tuple(self.tags),
        )


class RequestColumns(NamedTuple):
    """The paired requests of one trace as parallel typed columns.

    Row ``i`` is the paper's ``m := (s, t_s, t_e, p_s, p_e, dyn)`` plus the
    request id, phases by ``Phase.index``; the first four columns are the
    planner's packing key.  A table read off a trace is sorted by
    ``(alloc_time, req_id)``.  Readers only index and iterate, so hand-built
    tables may hold lists.
    """

    alloc_time: array
    req_id: array
    size: array
    free_time: array
    alloc_phase: array
    free_phase: array
    dyn: array


class HomoLayerGroup(NamedTuple):
    """One §5.2 HomoLayer group: the dynamic requests sharing ``(l_s, l_e)``."""

    #: ``(alloc module, free module)``; every member's key is this one tuple.
    key: tuple[str, str]
    #: Member request ids (``array('q')``), in request order.
    req_ids: array
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
            groups[key] = [key, array("q", (req_id,)), alloc_time, free_time]
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
    the event-by-event replay loop, and the profiler rejects them.  A request
    is numbered by its *alloc ordinal*, the rank of its alloc event among the
    trace's allocations.
    """

    ok: bool
    #: Event position of each request's alloc event, by ordinal (``array('q')``).
    alloc_pos: array
    #: Event position of each request's free event, by ordinal (-1: never freed).
    free_pos: array
    num_frees: int = 0
    #: Sum and minimum of the allocation sizes (0 without allocations).
    allocated_bytes: int = 0
    min_alloc_size: int = 0
    #: ``(ordinal, req_id, size)`` of the requests never freed, by ordinal.
    survivors: tuple[tuple[int, int, int], ...] = ()


#: The pairing of a trace that does not pair simply.
NOT_SIMPLE = Pairing(ok=False, alloc_pos=array("q"), free_pos=array("q"))


def values_at(positions: Sequence[int]) -> Callable[[Sequence[int]], tuple]:
    """A function from a column to the tuple of its values at ``positions``.

    An ``itemgetter`` gathers in one C loop; build it once to read several
    columns at the same positions.
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda column: tuple(column[position] for position in positions)


class TraceColumns:
    """Immutable parallel typed columns describing one trace.

    Derived quantities (peaks, pairing) are memoised: the columns are treated
    as immutable once built, exactly like :class:`Trace` itself.  Columns
    passed as other sequences are copied into arrays of their typecode.
    """

    __slots__ = (
        "kind", "req_id", "size", "time", "phase_index", "module_index",
        "dyn", "category", "tag_index", "modules", "tags",
        "_peaks", "_pairing_cache",
    )

    def __init__(
        self,
        *,
        kind: Sequence[int],
        req_id: Sequence[int],
        size: Sequence[int],
        time: Sequence[int],
        phase_index: Sequence[int],
        module_index: Sequence[int],
        dyn: Sequence[int],
        category: Sequence[int],
        tag_index: Sequence[int],
        modules: tuple[str, ...],
        tags: tuple[str, ...],
    ) -> None:
        self.kind = _typed_column("kind", "b", kind)
        self.req_id = _typed_column("req_id", "q", req_id)
        self.size = _typed_column("size", "q", size)
        self.time = _typed_column("time", "q", time)
        self.phase_index = _typed_column("phase_index", "i", phase_index)
        self.module_index = _typed_column("module_index", "i", module_index)
        self.dyn = _typed_column("dyn", "b", dyn)
        self.category = _typed_column("category", "b", category)
        self.tag_index = _typed_column("tag_index", "i", tag_index)
        if len({len(getattr(self, name)) for name in COLUMN_NAMES}) != 1:
            raise ValueError("trace columns differ in length")
        self.modules = modules
        self.tags = tags
        #: Peak live bytes by category code (``None``: every category).
        self._peaks: dict[int | None, int] = {}
        self._pairing_cache: Pairing | None = None

    def request_columns(self, *, end_of_trace: int) -> RequestColumns:
        """The paired requests as typed columns: what the planner reads.

        One row per request of a trace whose :meth:`pairing` is ``ok``, in
        alloc-ordinal order, which must be ``(alloc_time, req_id)`` order
        (a ``ValueError`` otherwise): a generated trace gives each event its
        own ascending tick.  Never-freed requests (weights, optimizer state)
        close at ``end_of_trace`` (at least one tick after their alloc), in the
        phase of the trace's last event.
        """
        pairing = self.pairing()
        if not pairing.ok:
            raise ValueError("trace does not pair simply")
        alloc_pos, free_pos = pairing.alloc_pos, pairing.free_pos
        time, phase = self.time, self.phase_index
        at_allocs = values_at(alloc_pos)
        alloc_time = array("q", at_allocs(time))
        never_freed = [ordinal for ordinal, _, _ in pairing.survivors]
        if not all(map(lt, alloc_time, alloc_time[1:])):
            keys = list(zip(alloc_time, at_allocs(self.req_id)))
            if keys != sorted(keys):
                raise ValueError("a trace's allocations are not in (time, request id) order")
        # Position -1 reads the last event; never-freed entries are then rewritten.
        at_frees = values_at(free_pos)
        free_time = array("q", at_frees(time))
        free_phase = array("i", at_frees(phase))
        if never_freed:
            _, last_phase = max(zip(time, phase))  # the latest tick, its highest phase
            for index in never_freed:
                free_time[index] = max(end_of_trace, alloc_time[index] + 1)
                free_phase[index] = last_phase
        size = array("q", at_allocs(self.size))
        if min(size, default=1) <= 0 or any(map(le, free_time, alloc_time)):
            raise ValueError("a request needs a positive size and a free_time after its alloc_time")
        return RequestColumns(
            alloc_time=alloc_time,
            req_id=array("q", at_allocs(self.req_id)),
            size=size,
            free_time=free_time,
            alloc_phase=array("i", at_allocs(self.phase_index)),
            free_phase=free_phase,
            dyn=array("b", at_allocs(self.dyn)),
        )

    def request_keys(self, *, end_of_trace: int) -> tuple[tuple[int, ...], ...]:
        """The ``req_id``, ``size``, ``alloc_time`` and ``free_time`` of every request.

        Four tuples in alloc-ordinal order, of a trace whose :meth:`pairing`
        is ``ok``; a never-freed request closes at ``end_of_trace``.  What
        :meth:`StaticAllocationPlan.request_keys` of a plan made for this
        trace returns when the trace numbers its requests in allocation order,
        as a generated trace does; for any other numbering the two differ.
        """
        pairing = self.pairing()
        if not pairing.ok:
            raise ValueError("trace does not pair simply")
        alloc_pos, free_pos = pairing.alloc_pos, pairing.free_pos
        at_allocs = values_at(alloc_pos)
        req_id = at_allocs(self.req_id)
        free_time = list(values_at(free_pos)(self.time))  # position -1 reads the last event
        for index in compress(range(len(free_pos)), map((-1).__eq__, free_pos)):
            free_time[index] = end_of_trace
        return req_id, at_allocs(self.size), at_allocs(self.time), tuple(free_time)

    def homolayer_groups(self, *, end_of_trace: int) -> list[HomoLayerGroup]:
        """The HomoLayer groups of the ``dyn`` requests, from one pass over the pairing.

        A request's key is ``(l_s, l_e)``: the module of its alloc event and
        of its free event -- the alloc module when the free names none or the
        request is never freed, in which case it closes as in
        :meth:`request_columns`.  The dynamic requests are taken in
        alloc-ordinal order, which :meth:`request_columns` requires to be
        ``(alloc_time, req_id)`` order.
        """
        pairing = self.pairing()
        if not pairing.ok:
            raise ValueError("trace does not pair simply")
        dynamic = values_at(pairing.alloc_pos)(self.dyn)
        alloc_pos = list(compress(pairing.alloc_pos, dynamic))
        free_pos = list(compress(pairing.free_pos, dynamic))
        time, req_id = self.time, self.req_id
        opened = values_at(alloc_pos)(time)
        module_index, modules = self.module_index, self.modules
        keys: dict[tuple[int, int], tuple[str, str]] = {}

        def rows() -> Iterator[tuple[int, int, tuple[str, str], int]]:
            for alloc, free, alloc_time in zip(alloc_pos, free_pos, opened):
                module = module_index[alloc]
                if free < 0:
                    closes, closing = max(end_of_trace, alloc_time + 1), module
                else:
                    closes, closing = time[free], module_index[free]
                key = keys.get((module, closing))
                if key is None:
                    key = keys[module, closing] = (
                        modules[module], modules[closing] or modules[module]
                    )
                yield alloc_time, req_id[alloc], key, closes

        return group_homolayers(rows())

    # ------------------------------------------------------------------ #
    # Analytics
    # ------------------------------------------------------------------ #
    @property
    def num_events(self) -> int:
        return len(self.kind)

    def _signed_sizes(self, category: int | None = None) -> Iterator[int]:
        """``+size`` per alloc and ``-size`` per free (of one category only)."""
        if category is None:
            return (size if kind == ALLOC else -size for kind, size in zip(self.kind, self.size))
        return (
            size if kind == ALLOC else -size
            for kind, size, code in zip(self.kind, self.size, self.category)
            if code == category
        )

    def _peak(self, category: int | None = None) -> int:
        # Positive steps only come from allocs, so the prefix maximum is
        # always attained immediately after an alloc.
        peak = self._peaks.get(category)
        if peak is None:
            peak = self._peaks[category] = max(
                accumulate(self._signed_sizes(category), initial=0)
            )
        return peak

    def peak_allocated_bytes(self, events: int | None = None) -> int:
        """Peak live bytes over the whole trace, or over its first ``events`` events."""
        if events is None:
            return self._peak()
        return max(accumulate(islice(self._signed_sizes(), events), initial=0))

    def comm_peak_bytes(self) -> int:
        return self._peak(COMM_BUFFER_CODE)

    def kv_peak_bytes(self) -> int:
        return self._peak(KV_CACHE_CODE)

    @property
    def num_requests(self) -> int:
        return self.kind.count(ALLOC)

    def allocation_sizes(self, *, min_size: int = 0) -> list[int]:
        sizes = [size for kind, size in zip(self.kind, self.size) if kind == ALLOC]
        return [size for size in sizes if size >= min_size] if min_size else sizes

    def distinct_sizes(self, *, min_size: int = 512) -> int:
        return len({size for size in self.allocation_sizes() if size > min_size})

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
        """The alloc positions in one C-level pass, then one Python pass over the frees.

        A generator trace numbers its requests in allocation order (the
        ``k``-th alloc has request id ``k``), so there a request's ordinal is
        its id; any other numbering goes through a dict from id to ordinal.
        The allocations' positions, ids and sizes are gathered once and read
        as Python ints until the positions are stored.
        """
        kinds, req_ids, sizes = self.kind, self.req_id, self.size
        positions = range(len(kinds))
        alloc_pos = list(compress(positions, map(not_, kinds)))
        num_allocs = len(alloc_pos)
        at_allocs = values_at(alloc_pos)
        alloc_ids = at_allocs(req_ids)
        ordinal_of: dict[int, int] | None = None
        if alloc_ids != tuple(range(num_allocs)):
            ordinal_of = dict(zip(alloc_ids, range(num_allocs)))
            if len(ordinal_of) != num_allocs:
                return NOT_SIMPLE  # allocated twice
        alloc_sizes = at_allocs(sizes)
        free_pos = [-1] * num_allocs
        frees = zip(compress(positions, kinds), compress(req_ids, kinds), compress(sizes, kinds))
        for pos, req_id, size in frees:
            if ordinal_of is None:
                ordinal = req_id if 0 <= req_id < num_allocs else None
            else:
                ordinal = ordinal_of.get(req_id)
            if (
                ordinal is None  # freed without an allocation
                or alloc_pos[ordinal] > pos  # freed before its allocation
                or free_pos[ordinal] >= 0  # freed twice
                or size != alloc_sizes[ordinal]
            ):
                return NOT_SIMPLE
            free_pos[ordinal] = pos
        return Pairing(
            ok=True,
            alloc_pos=array("q", alloc_pos),
            free_pos=array("q", free_pos),
            num_frees=len(sizes) - num_allocs,
            allocated_bytes=sum(alloc_sizes),
            min_alloc_size=min(alloc_sizes, default=0),
            survivors=tuple(
                (ordinal, alloc_ids[ordinal], alloc_sizes[ordinal])
                for ordinal, pos in enumerate(free_pos)
                if pos < 0
            ),
        )
