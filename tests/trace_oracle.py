"""The event-object view of a trace, kept as a test oracle.

The package stores a trace only as typed columns.  Tests build hand-made
traces through :func:`make_trace` (one ``ColumnBuilder`` pass over
:class:`TraceEvent` objects), read a trace back as objects through
:func:`events_of`, and check the profiler's request columns and HomoLayer
groups against :func:`pair_events`, an independent object-by-object pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.columns import CATEGORIES, CATEGORY_CODES, KINDS, ColumnBuilder
from repro.core.events import EventKind, Phase, TensorCategory
from repro.core.profiler import ProfileResult
from repro.workloads.trace import Trace, TraceMetadata


@dataclass(frozen=True)
class TraceEvent:
    """One allocation or free, as a row of a trace's columns."""

    kind: EventKind
    req_id: int
    size: int
    time: int
    phase: Phase
    module: str = ""
    dyn: bool = False
    category: TensorCategory = TensorCategory.OTHER
    tag: str = ""

    def is_alloc(self) -> bool:
        return self.kind is EventKind.ALLOC


@dataclass(frozen=True)
class MemoryRequest:
    """A paired allocation/free: ``m := (s, t_s, t_e, p_s, p_e, dyn)`` plus its modules."""

    req_id: int
    size: int
    alloc_time: int
    free_time: int
    alloc_phase: Phase
    free_phase: Phase
    dyn: bool = False
    alloc_module: str = ""
    free_module: str = ""
    category: TensorCategory = TensorCategory.OTHER
    tag: str = ""

    @property
    def layer_pair(self) -> tuple[str, str]:
        """The ``(l_s, l_e)`` module pair that keys HomoLayer groups."""
        return (self.alloc_module, self.free_module)


def make_trace(
    events: Iterable[TraceEvent],
    *,
    phases: Sequence[Phase] | None = None,
    module_spans: dict[str, tuple[int, int]] | None = None,
    metadata: TraceMetadata | None = None,
) -> Trace:
    """A trace of ``events``, in order; phases default to the ones the events carry."""
    events = list(events)
    builder = ColumnBuilder()
    modules, tags = builder.modules, builder.tags
    kind_codes = {kind: code for code, kind in enumerate(KINDS)}
    rows = [
        (
            kind_codes[event.kind], event.req_id, event.size, event.time, event.phase.index,
            modules.setdefault(event.module, len(modules)), 1 if event.dyn else 0,
            CATEGORY_CODES[event.category], tags.setdefault(event.tag, len(tags)),
        )
        for event in events
    ]
    if rows:
        builder.extend(*zip(*rows))
    if phases is None:
        phases = sorted({event.phase.index: event.phase for event in events}.values())
    return Trace(
        metadata=metadata, phases=phases, module_spans=module_spans, columns=builder.build()
    )


def trace_of_requests(requests: Iterable[MemoryRequest]) -> Trace:
    """A trace whose profile holds exactly ``requests``: an alloc and a free each."""
    events = []
    for m in requests:
        common = dict(req_id=m.req_id, size=m.size, dyn=m.dyn, category=m.category, tag=m.tag)
        events.append(TraceEvent(EventKind.ALLOC, time=m.alloc_time, phase=m.alloc_phase,
                                 module=m.alloc_module, **common))
        events.append(TraceEvent(EventKind.FREE, time=m.free_time, phase=m.free_phase,
                                 module=m.free_module, **common))
    # At a shared tick frees come first, as the profile's peak counts them, and
    # allocations by request id, the order the profiler requires.
    events.sort(key=lambda event: (event.time, event.is_alloc(), event.req_id))
    phases = {event.phase.index: event.phase for event in events}
    return make_trace(events, phases=sorted(phases.values()))


def events_of(trace: Trace) -> list[TraceEvent]:
    """The trace's columns as one :class:`TraceEvent` per row."""
    columns = trace.columns
    phases = trace.phase_table()
    return [
        TraceEvent(
            kind=KINDS[kind],
            req_id=req_id,
            size=size,
            time=time,
            phase=phases[phase_index],
            module=columns.modules[module_index],
            dyn=bool(dyn),
            category=CATEGORIES[category],
            tag=columns.tags[tag_index],
        )
        for kind, req_id, size, time, phase_index, module_index, dyn, category, tag_index in zip(
            columns.kind, columns.req_id, columns.size, columns.time, columns.phase_index,
            columns.module_index, columns.dyn, columns.category, columns.tag_index,
        )
    ]


def pair_events(
    events: Iterable[TraceEvent], *, end_of_trace: int | None = None
) -> list[MemoryRequest]:
    """Pair alloc/free events into requests, sorted by ``(alloc_time, req_id)``.

    Allocations never freed (weights, optimizer state) close at
    ``end_of_trace`` (default: one tick past the last event, and at least one
    tick after the allocation) in the phase of the final event.  A free of an
    id with no live allocation, or a second allocation of a live id, raises
    ``ValueError``.
    """
    events = list(events)
    if not events:
        return []
    last_phase = max(events, key=lambda e: (e.time, e.phase.index)).phase
    if end_of_trace is None:
        end_of_trace = max(e.time for e in events) + 1
    open_allocs: dict[int, TraceEvent] = {}
    requests: list[MemoryRequest] = []

    def request(alloc: TraceEvent, free_time: int, free_phase: Phase, free_module: str):
        return MemoryRequest(
            req_id=alloc.req_id, size=alloc.size, alloc_time=alloc.time, free_time=free_time,
            alloc_phase=alloc.phase, free_phase=free_phase, dyn=alloc.dyn,
            alloc_module=alloc.module, free_module=free_module or alloc.module,
            category=alloc.category, tag=alloc.tag,
        )

    for event in events:
        if event.is_alloc():
            if event.req_id in open_allocs:
                raise ValueError(f"request {event.req_id} allocated twice without a free")
            open_allocs[event.req_id] = event
            continue
        alloc = open_allocs.pop(event.req_id, None)
        if alloc is None:
            raise ValueError(f"free of unknown request {event.req_id}")
        requests.append(request(alloc, event.time, event.phase, event.module))
    for alloc in open_allocs.values():
        requests.append(request(alloc, max(end_of_trace, alloc.time + 1), last_phase, ""))
    requests.sort(key=lambda m: (m.alloc_time, m.req_id))
    return requests


def requests_of(trace: Trace) -> list[MemoryRequest]:
    """:func:`pair_events` over the trace's rows: the oracle of its profile."""
    return pair_events(events_of(trace), end_of_trace=trace.end_time())


def profile_of(requests: Iterable[MemoryRequest]) -> ProfileResult:
    """The product's profile of :func:`trace_of_requests`."""
    return ProfileResult(trace_of_requests(requests))


def reload(text: str, directory) -> Trace:
    """:meth:`Trace.load` of the JSON-lines ``text``, written to a file in ``directory``."""
    path = Path(directory) / "reloaded.jsonl"
    path.write_text(text, encoding="utf-8")
    return Trace.load(path)
