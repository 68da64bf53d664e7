"""Tests for the phase model and for how the profiler pairs alloc/free events."""

from __future__ import annotations

import pytest

from repro.core.events import EventKind, Phase, PhaseKind, TensorCategory
from repro.core.profiler import ProfileResult
from tests.conftest import make_phase
from tests.trace_oracle import TraceEvent, make_trace


class TestPhase:
    def test_ordering_by_index(self):
        assert make_phase(0) < make_phase(1)

    def test_equality_is_by_index(self):
        forward = Phase(index=2, kind=PhaseKind.FORWARD, microbatch=3, chunk=1)
        assert forward == Phase(index=2, kind=PhaseKind.BACKWARD)
        assert forward != Phase(index=3, kind=PhaseKind.FORWARD, microbatch=3, chunk=1)


class TestPairing:
    """:class:`ProfileResult` over hand-built traces: the request columns and groups."""

    def _alloc(self, req_id, size, time, phase, **kwargs):
        return TraceEvent(EventKind.ALLOC, req_id, size, time, phase, **kwargs)

    def _free(self, req_id, size, time, phase, **kwargs):
        return TraceEvent(EventKind.FREE, req_id, size, time, phase, **kwargs)

    def test_simple_pairing(self):
        p0, p1 = make_phase(0), make_phase(1, PhaseKind.BACKWARD)
        trace = make_trace([self._alloc(1, 100, 0, p0), self._free(1, 100, 5, p1)])
        columns = ProfileResult(trace).columns
        assert list(zip(*columns)) == [(0, 1, 100, 5, p0.index, p1.index, 0)]

    def test_unfreed_allocations_are_closed_at_trace_end(self):
        p0 = make_phase(0, PhaseKind.INIT)
        p1 = make_phase(1)
        events = [self._alloc(1, 100, 0, p0), self._alloc(2, 50, 3, p1), self._free(2, 50, 8, p1)]
        columns = ProfileResult(make_trace(events)).columns
        persistent = list(columns.req_id).index(1)
        assert columns.free_time[persistent] == 9  # one tick past the last event
        assert columns.free_phase[persistent] == p1.index

    @pytest.mark.parametrize(
        "events, message",
        [
            ([("free", 1, 100)], "free of unknown request 1"),
            ([("alloc", 1, 100), ("alloc", 1, 100)], "request 1 allocated twice"),
            ([("alloc", 1, 100), ("free", 1, 100), ("free", 1, 100)], "free of unknown request 1"),
            ([("alloc", 1, 100), ("free", 1, 100), ("alloc", 1, 100)], "request 1 allocated twice"),
            (
                [("alloc", 1, 100), ("free", 1, 64)],
                "request 1 freed with 64 bytes, allocated with 100",
            ),
        ],
        ids=["free-without-alloc", "double-alloc", "double-free", "id-reuse", "size-mismatch"],
    )
    def test_traces_that_do_not_pair_simply_raise_naming_the_request(self, events, message):
        p0 = make_phase(0)
        trace = make_trace(
            TraceEvent(EventKind(kind), req_id, size, time, p0)
            for time, (kind, req_id, size) in enumerate(events)
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProfileResult(trace)

    @pytest.mark.parametrize(
        "events",
        [
            [("alloc", 1, 0, 0), ("free", 1, 0, 1)],
            [("alloc", 1, -8, 0), ("free", 1, -8, 1)],
            [("alloc", 1, 0, 3)],
            [("alloc", 1, 8, 3), ("free", 1, 8, 3)],
            [("alloc", 1, 8, 3), ("free", 1, 8, 2)],
        ],
        ids=["zero-size", "negative-size", "zero-size-never-freed", "free-at-alloc-tick",
             "free-before-alloc"],
    )
    def test_requests_need_a_positive_size_and_a_free_after_the_alloc(self, events):
        p0 = make_phase(0)
        trace = make_trace(
            TraceEvent(EventKind(kind), req_id, size, time, p0)
            for kind, req_id, size, time in events
        )
        with pytest.raises(ValueError, match="positive size and a free_time after its alloc_time"):
            ProfileResult(trace)

    def test_dynamic_metadata_preserved(self):
        p0, p1 = make_phase(0), make_phase(1, PhaseKind.BACKWARD)
        events = [
            self._alloc(1, 100, 0, p0, dyn=True, module="layer0.experts",
                        category=TensorCategory.EXPERT_ACTIVATION),
            self._free(1, 100, 4, p1, dyn=True, module="layer0.experts.grad"),
        ]
        profile = ProfileResult(make_trace(events))
        assert list(profile.columns.dyn) == [1]
        [group] = profile.dynamic_groups
        assert group.key == ("layer0.experts", "layer0.experts.grad")
        assert list(group.req_ids) == [1]

    def test_empty_trace(self):
        profile = ProfileResult()
        assert profile.num_requests == 0 and profile.dynamic_groups == []
        assert profile.summary()["peak_allocated_bytes"] == 0

    def test_requests_sorted_by_alloc_time(self):
        p0 = make_phase(0)
        events = [
            self._alloc(2, 10, 1, p0),
            self._alloc(1, 10, 0, p0),
            self._free(1, 10, 2, p0),
            self._free(2, 10, 3, p0),
        ]
        assert list(ProfileResult(make_trace(events)).columns.req_id) == [1, 2]
