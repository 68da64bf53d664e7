"""Allocation Profiler (§4).

The profiler consumes the raw allocation/free event stream of one training
iteration (in the real system: every torch-level malloc/free, executed through
the native GPU APIs so fragmentation cannot cause spurious OOMs) and organises
it into the memory-request events the Plan Synthesizer works on, preserving
the training-level context needed for grouping: computation phase,
micro-batch, module name and the dynamicity flag.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import itemgetter, le

from repro.core.columns import HomoLayerGroup, RequestColumns, group_homolayers
from repro.core.events import MemoryRequest, Phase
from repro.workloads.trace import Trace


class ProfileResult:
    """Everything the Plan Synthesizer needs from a profiling run.

    The requests are held as int-list :attr:`columns` and the dynamic ones'
    HomoLayer groups as :attr:`dynamic_groups` -- read off the trace's
    alloc/free pairing, or off the request objects a caller passes -- and
    that is all planning touches.  ``MemoryRequest`` objects are a view: a
    profile of a trace builds them only when asked (:attr:`requests`, for
    tests and examples).
    """

    def __init__(
        self,
        requests: list[MemoryRequest] | None = None,
        module_spans: dict[str, tuple[int, int]] | None = None,
        phases: list[Phase] | None = None,
        end_time: int = 0,
        metadata: dict | None = None,
        *,
        trace: Trace | None = None,
    ):
        # A trace that does not pair simply is profiled through its request
        # objects: pair_events names what is malformed.
        if trace is not None and not trace.columns.pairing().ok:
            requests, trace = trace.to_requests(), None
        self._trace = trace
        self._requests = None if trace is not None else list(requests or ())
        self.columns: RequestColumns = (
            trace.columns.request_columns(end_of_trace=trace.end_time())
            if trace is not None
            else RequestColumns.from_requests(self._requests)
        )
        self.module_spans = module_spans if module_spans is not None else {}
        self.phases = phases if phases is not None else []
        self.end_time = end_time
        self.metadata = metadata if metadata is not None else {}
        self._swept: dict | None = None
        self._dynamic_groups: list[HomoLayerGroup] | None = None

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def requests(self) -> list[MemoryRequest]:
        """Object view of every request (built once, on first use)."""
        if self._requests is None:
            self._requests = self._trace.to_requests()
        return self._requests

    @property
    def static_requests(self) -> list[MemoryRequest]:
        """Requests with deterministic size and lifespan (``M_s``)."""
        return [request for request in self.requests if not request.dyn]

    @property
    def dynamic_groups(self) -> list[HomoLayerGroup]:
        """HomoLayer groups of the dynamic (MoE expert) requests ``M_d`` (built once)."""
        if self._dynamic_groups is None:
            trace = self._trace
            self._dynamic_groups = (
                trace.columns.homolayer_groups(end_of_trace=trace.end_time())
                if trace is not None
                else group_homolayers(
                    (m.alloc_time, m.req_id, m.layer_pair, m.free_time)
                    for m in self._requests
                    if m.dyn
                )
            )
        return self._dynamic_groups

    @property
    def num_requests(self) -> int:
        return len(self.columns.req_id)

    def _sweep(self) -> dict:
        """Counts, byte totals and both demand peaks, from one sweep (memoised).

        One walk over the requests in alloc-time order.  A heap holds the live
        ones' ``(free_time, size, static size)`` and is drained with ``<=``
        before each alloc, so a free at time t lands before an alloc at t; the
        static peak counts the dynamic requests as zero bytes.
        """
        if self._swept is None:
            columns = self.columns
            alloc_time, size, dyn = columns.alloc_time, columns.size, columns.dyn
            rows = zip(alloc_time, size, columns.free_time, dyn)
            if not all(map(le, alloc_time, alloc_time[1:])):  # built from request objects
                rows = sorted(rows, key=itemgetter(0))
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

    def peak_allocated_bytes(self) -> int:
        """Theoretical peak demand of all requests."""
        return self._sweep()["peak_allocated_bytes"]

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
        return ProfileResult(
            trace=trace,
            module_spans=dict(trace.module_spans),
            phases=list(trace.phases),
            end_time=trace.end_time(),
            metadata={
                "model_name": trace.metadata.model_name,
                "config_label": trace.metadata.config_label,
                "description": trace.metadata.description,
            },
        )
