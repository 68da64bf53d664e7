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

from heapq import heappop, heappush

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
        self._swept: dict | None = None
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

    def _sweep(self) -> dict:
        """Counts, byte totals and both demand peaks, from one sweep (memoised).

        One walk over the requests, which are in alloc-time order.  A heap
        holds the live ones' ``(free_time, size, static size)`` and is drained
        with ``<=`` before each alloc, so a free at time t lands before an
        alloc at t; the static peak counts the dynamic requests as zero bytes.
        """
        if self._swept is None:
            columns = self.columns
            size, dyn = columns.size, columns.dyn
            rows = zip(columns.alloc_time, size, columns.free_time, dyn)
            live: list[tuple[int, int, int]] = []
            allocated = static = peak = peak_static = static_bytes = 0
            for opened, nbytes, closes, is_dynamic in rows:
                while live and live[0][0] <= opened:
                    _, freed, freed_static = heappop(live)
                    allocated -= freed
                    static -= freed_static
                static_nbytes = 0 if is_dynamic else nbytes
                heappush(live, (closes, nbytes, static_nbytes))
                allocated += nbytes
                static += static_nbytes
                static_bytes += static_nbytes
                if allocated > peak:
                    peak = allocated
                if static > peak_static:
                    peak_static = static
            num_dynamic = sum(dyn)
            self._swept = {
                "num_requests": len(size),
                "num_static_requests": len(size) - num_dynamic,
                "num_dynamic_requests": num_dynamic,
                "static_bytes": static_bytes,
                "dynamic_bytes": sum(size) - static_bytes,
                "peak_allocated_bytes": peak,
                "peak_static_bytes": peak_static,
            }
        return self._swept

    def peak_static_bytes(self) -> int:
        """Peak demand of the static requests alone: a lower bound for any plan."""
        return self._sweep()["peak_static_bytes"]

    def summary(self) -> dict:
        """Compact profiling report (used by Table 2 and the CLI)."""
        report = dict(self._sweep(), num_phases=len(self.phases), num_modules=len(self.module_spans))
        del report["peak_static_bytes"]  # reported by the synthesizer, as its lower bound
        return report


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
