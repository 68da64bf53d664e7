"""The profile's demand peaks against a tick-sort oracle.

The profiler takes both peaks as prefix maxima over the trace's events when
its ticks strictly ascend, and over the requests' sorted ticks otherwise.
The oracle is the plain definition: every alloc and free as a ``(time,
delta)`` tick, sorted so that a free lands before an alloc at the same time,
and the peak of the running sum.  Both peaks (all requests, and the static
ones alone) and the counts and byte totals must agree on seeded random
requests: frees at the same time as other allocs, requests listed out of
alloc order, never-freed requests, and all-dynamic, no-dynamic and empty
profiles, on traces whose ticks collide and on traces whose ticks ascend.
"""

from __future__ import annotations

import random
from itertools import accumulate
from operator import itemgetter

import pytest

from repro.core.columns import ALLOC, CATEGORIES, FREE, KINDS
from repro.core.events import PhaseKind
from repro.core.profiler import AllocationProfiler, ProfileResult
from repro.workloads.trace import Trace
from tests.conftest import make_phase, make_request
from tests.trace_oracle import TraceEvent, make_trace, profile_of


def tick_sort_peaks(columns) -> tuple[int, int]:
    """(peak of all requests, peak of the static ones) by sorting alloc/free ticks."""
    size = columns.size
    static = [0 if dyn else s for s, dyn in zip(size, columns.dyn)]
    ticks = [
        *zip(columns.alloc_time, size, static),
        *zip(columns.free_time, [-s for s in size], [-s for s in static]),
    ]
    ticks.sort(key=itemgetter(0, 1))  # a free's delta is negative: first at equal time
    return (
        max(accumulate(map(itemgetter(1), ticks), initial=0)),
        max(accumulate(map(itemgetter(2), ticks), initial=0)),
    )


def assert_matches_oracle(profile: ProfileResult) -> dict:
    swept = dict(profile.summary(), peak_static_bytes=profile.peak_static_bytes())
    columns = profile.columns
    static_bytes = sum(s for s, dyn in zip(columns.size, columns.dyn) if not dyn)
    assert (swept["peak_allocated_bytes"], swept["peak_static_bytes"]) == tick_sort_peaks(columns)
    assert swept["num_requests"] == len(columns.size)
    assert swept["num_dynamic_requests"] == sum(columns.dyn)
    assert swept["num_static_requests"] == len(columns.size) - sum(columns.dyn)
    assert swept["static_bytes"] == static_bytes
    assert swept["dynamic_bytes"] == sum(columns.size) - static_bytes
    return swept


def random_requests(rng: random.Random, count: int, *, horizon: int, dyn_share: float):
    """Requests in shuffled order; a short horizon makes times collide often."""
    requests = []
    for req_id in range(count):
        alloc = rng.randrange(horizon)
        requests.append(
            make_request(
                req_id,
                rng.choice((1, 512, rng.randrange(1, 1 << 20))),
                alloc,
                alloc + rng.randrange(1, max(2, horizon // 3)),
                dyn=rng.random() < dyn_share,
            )
        )
    rng.shuffle(requests)
    return requests


def random_trace(
    rng: random.Random,
    count: int,
    *,
    horizon: int,
    dyn_share: float,
    ascending: bool = False,
    free_flags_at_random: bool = False,
) -> Trace:
    """A hand-built trace whose never-freed requests close at the end of the trace.

    ``ascending`` renumbers the sorted events' ticks ``0, 1, 2, ...``, so
    every event has a tick of its own.  ``free_flags_at_random`` gives each
    free a ``dyn`` flag of its own: a request is dynamic by its alloc's.
    """
    events = []  # (time, frees first, kind, req_id, size, dyn)
    for req_id in range(count):
        alloc = rng.randrange(horizon)
        size = rng.randrange(1, 1 << 16)
        dyn = rng.random() < dyn_share
        events.append((alloc, 1, ALLOC, req_id, size, dyn))
        if rng.random() < 0.8:
            free_dyn = rng.random() < 0.5 if free_flags_at_random else dyn
            events.append((alloc + rng.randrange(1, horizon), 0, FREE, req_id, size, free_dyn))
    events.sort()
    if ascending:
        events = [(tick, *event[1:]) for tick, event in enumerate(events)]
    phase = make_phase(0, PhaseKind.FORWARD)
    return make_trace(
        TraceEvent(KINDS[kind], req_id, size, time, phase, "layers.0", dyn, CATEGORIES[0])
        for time, _, kind, req_id, size, dyn in events
    )


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("dyn_share", [0.0, 0.4, 1.0], ids=["no-dynamic", "mixed", "all-dynamic"])
def test_request_built_profiles_match_the_tick_sort(seed, dyn_share):
    rng = random.Random(seed)
    requests = random_requests(rng, rng.randrange(1, 200), horizon=rng.choice((5, 40, 1000)),
                               dyn_share=dyn_share)
    swept = assert_matches_oracle(profile_of(requests))
    if dyn_share == 1.0:
        assert swept["peak_static_bytes"] == 0
    if dyn_share == 0.0:
        assert swept["peak_static_bytes"] == swept["peak_allocated_bytes"]


@pytest.mark.parametrize("seed", range(40))
def test_trace_built_profiles_with_never_freed_requests_match_the_tick_sort(seed):
    rng = random.Random(1000 + seed)
    trace = random_trace(rng, rng.randrange(1, 200), horizon=rng.choice((5, 40, 1000)),
                         dyn_share=0.3)
    profile = AllocationProfiler().profile(trace)
    assert_matches_oracle(profile)
    # The trace's own event-order peak agrees: its frees come first at equal time.
    assert profile.summary()["peak_allocated_bytes"] == trace.peak_allocated_bytes()


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("dyn_share", [0.0, 0.4, 1.0], ids=["no-dynamic", "mixed", "all-dynamic"])
def test_ascending_tick_traces_match_the_tick_sort(seed, dyn_share):
    """The event-order prefix maxima, the path every generated trace takes."""
    rng = random.Random(3000 + seed)
    trace = random_trace(rng, rng.randrange(1, 200), horizon=rng.choice((5, 40, 1000)),
                         dyn_share=dyn_share, ascending=True, free_flags_at_random=seed % 2 == 1)
    assert trace.columns.pairing().ticks_ascend
    assert_matches_oracle(AllocationProfiler().profile(trace))


def test_a_routed_trace_matches_the_tick_sort(moe_trace):
    """A generated MoE trace: ascending ticks, and dynamic requests to zero."""
    assert moe_trace.columns.pairing().ticks_ascend and 1 in moe_trace.columns.dyn
    swept = assert_matches_oracle(AllocationProfiler().profile(moe_trace))
    assert 0 < swept["peak_static_bytes"] < swept["peak_allocated_bytes"]


def test_a_free_lands_before_an_alloc_at_the_same_time():
    first = make_request(0, 10, alloc_time=0, free_time=2)
    second = make_request(1, 5, alloc_time=2, free_time=3)
    overlapping = make_request(2, 7, alloc_time=1, free_time=3)
    assert profile_of([first, second]).summary()["peak_allocated_bytes"] == 10
    assert profile_of([second, overlapping, first]).summary()["peak_allocated_bytes"] == 17


def test_an_empty_profile_peaks_at_zero():
    swept = assert_matches_oracle(ProfileResult())
    assert swept["peak_allocated_bytes"] == swept["peak_static_bytes"] == 0
