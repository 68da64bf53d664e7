"""Allocation Profiler (§4).

The profiler consumes the raw allocation/free event stream of one training
iteration (in the real system: every torch-level malloc/free, executed through
the native GPU APIs so fragmentation cannot cause spurious OOMs) and organises
it into the memory-request events ``m := (s, t_s, t_e, p_s, p_e, dyn)`` the
Plan Synthesizer works on, preserving the training-level context needed for
grouping: computation phase, micro-batch, module name and the dynamicity
flag.  Both its input and its output are typed columns: a trace's
:class:`~repro.core.columns.TraceColumns` in, one
:class:`~repro.core.columns.RequestColumns` row per paired alloc/free and the
dynamic requests' HomoLayer groups out.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, compress, repeat
from operator import itemgetter, mul, neg, not_

from repro.core.columns import ALLOC, HomoLayerGroup, RequestColumns, TraceColumns
from repro.workloads.trace import Trace


def _refuse_unpaired(columns: TraceColumns) -> None:
    """Raise the ``ValueError`` naming the first request that does not pair simply.

    Walks the events in order under :meth:`TraceColumns.pairing`'s rules:
    a request id is allocated once, freed once after its allocation, and
    freed with its allocation's size.
    """
    allocated: set[int] = set()
    live: dict[int, int] = {}
    for kind, req_id, size in zip(columns.kind, columns.req_id, columns.size):
        if kind == ALLOC:
            if req_id in allocated:
                raise ValueError(f"request {req_id} allocated twice")
            allocated.add(req_id)
            live[req_id] = size
            continue
        opened = live.pop(req_id, None)
        if opened is None:
            raise ValueError(f"free of unknown request {req_id}")
        if opened != size:
            raise ValueError(f"request {req_id} freed with {size} bytes, allocated with {opened}")


def static_sizes(columns: RequestColumns) -> list[int]:
    """The requests' sizes with every dynamic request's zeroed."""
    return list(map(mul, columns.size, map(not_, columns.dyn)))


class ProfileResult:
    """Everything the Plan Synthesizer needs from a profiling run.

    The requests are held as typed :attr:`columns` (one row per paired
    alloc/free, :class:`RequestColumns`) and the dynamic ones' HomoLayer
    groups as :attr:`dynamic_groups`, both read off the trace's alloc/free
    pairing; that is all planning touches.  Without a trace the profile is
    empty (a loaded plan's).  A trace that does not pair simply (a request id
    allocated twice, a free with no live allocation or with another size)
    raises ``ValueError`` naming the first offending request.
    """

    def __init__(self, trace: Trace | None = None):
        trace = trace if trace is not None else Trace()
        if not trace.columns.pairing().ok:
            _refuse_unpaired(trace.columns)
        #: The profiled trace (empty for a loaded plan's profile).
        self.trace = trace
        self.end_time = trace.end_time()
        self.columns: RequestColumns = trace.columns.request_columns(end_of_trace=self.end_time)
        self.module_spans = dict(trace.module_spans)
        self.phases = list(trace.phases)
        self._counted: dict | None = None
        self._peak_static: int | None = None
        self._dynamic_groups: list[HomoLayerGroup] | None = None

    @property
    def dynamic_groups(self) -> list[HomoLayerGroup]:
        """HomoLayer groups of the dynamic (MoE expert) requests ``M_d`` (built once)."""
        if self._dynamic_groups is None:
            self._dynamic_groups = self.trace.columns.homolayer_groups(end_of_trace=self.end_time)
        return self._dynamic_groups

    @property
    def num_requests(self) -> int:
        return len(self.columns.req_id)

    def _counts(self) -> dict:
        """Counts, byte totals and the peak live bytes of all requests (memoised)."""
        if self._counted is None:
            size, dyn = self.columns.size, self.columns.dyn
            num_dynamic = sum(dyn)
            static_bytes = sum(static_sizes(self.columns))
            self._counted = {
                "num_requests": len(size),
                "num_static_requests": len(size) - num_dynamic,
                "num_dynamic_requests": num_dynamic,
                "static_bytes": static_bytes,
                "dynamic_bytes": sum(size) - static_bytes,
                "peak_allocated_bytes": self._peak(static=False),
            }
        return self._counted

    def _peak(self, *, static: bool) -> int:
        """Peak live bytes of all requests, or of the static ones alone.

        A prefix maximum over the alloc/free ticks in order, a free before an
        alloc at an equal tick.  On a trace whose ticks strictly ascend that
        order is the event order: the all-bytes peak is the trace's own
        (memoised on its columns), and the static one sums the same events
        with each dynamic request's size zeroed on its alloc and its free, the
        flag read off the paired alloc.  Otherwise the requests' ticks are
        sorted first.
        """
        columns, events = self.columns, self.trace.columns
        dynamic = static and 1 in columns.dyn
        pairing = events.pairing()
        if not pairing.ticks_ascend:
            sizes = static_sizes(columns) if dynamic else columns.size
            ticks = [
                *zip(columns.alloc_time, repeat(1), sizes),
                *zip(columns.free_time, repeat(0), map(neg, sizes)),
            ]
            ticks.sort(key=itemgetter(0, 1))
            return max(accumulate(map(itemgetter(2), ticks), initial=0))
        if not dynamic:
            return events.peak_allocated_bytes()
        deltas = array(
            "q", (size if kind == ALLOC else -size for kind, size in zip(events.kind, events.size))
        )
        dynamic_events = chain(
            compress(pairing.alloc_pos, columns.dyn), compress(pairing.free_pos, columns.dyn)
        )
        for position in dynamic_events:
            if position >= 0:  # -1: never freed
                deltas[position] = 0
        return max(accumulate(deltas, initial=0))

    def peak_static_bytes(self) -> int:
        """Peak demand of the static requests alone: a lower bound for any plan (memoised)."""
        if self._peak_static is None:
            self._peak_static = self._peak(static=True)
        return self._peak_static

    def summary(self) -> dict:
        """Compact profiling report (used by Table 2 and the CLI)."""
        return dict(self._counts(), num_phases=len(self.phases), num_modules=len(self.module_spans))


class AllocationProfiler:
    """Turns a raw trace into the Plan Synthesizer's input."""

    def __init__(self, *, iterations: int = 3):
        if iterations < 1:
            raise ValueError("profiling needs at least one iteration")
        #: Number of iterations the real profiler observes before planning;
        #: only used by the overhead model (the trace itself is one iteration
        #: because training iterations repeat the same request stream).
        self.iterations = iterations

    def profile(self, trace: Trace) -> ProfileResult:
        """Pair the trace's events into memory-request columns."""
        return ProfileResult(trace)
