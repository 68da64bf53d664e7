"""The Dynamic Allocator's carve against the global walk it replaced.

``tests/carve_oracle.best_fit_within`` is the walk the runtime made over the
whole pool's free list.  :class:`OracleRuntime` replays event by event and
carves every dynamic request with it.  The product ``RuntimeAllocator``
replays the trace its plan was profiled on in one pass, carving beside the
live dynamic placements alone, and any other trace through its checked path.
Every dynamic request's carve (in order), the end state, the fallback's books
and the device's must agree, and no two live requests may overlap in the
pool, on

* moe-tiny traces without and with all-to-all buffers, seeds 0-3, ZeRO
  stages 0 and 1: the profiled trace, replayed in one pass;
* a plan made on seed s replaying seed s + 1: a foreign trace, replayed
  through the checked path;
* generator-free seeded streams with ``dyn`` flags, replayed on their own
  plan and on another stream's, where dynamic requests the profile never saw
  take the module-hint and same-module group fallbacks.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import asdict

import pytest

from repro.core.columns import ALLOC
from repro.core.events import EventKind, Phase, PhaseKind
from repro.core.intervals import IntervalSet
from repro.core.runtime import RuntimeAllocator
from repro.core.stalloc import STAlloc
from repro.gpu.device import GIB, Device
from repro.simulator.replay import replay_trace
from repro.workloads.trace import Trace
from repro.workloads.tracegen import TraceGenerator
from tests.carve_oracle import best_fit_within
from tests.test_golden_traces import _case_configs
from tests.trace_oracle import TraceEvent, make_trace

CAPACITY = 1024 * GIB


class OracleRuntime(RuntimeAllocator):
    """The checked event loop, carving with the global walk (a subclass never batches).

    ``carves`` logs ``(req_id, address or None, size)`` for every dynamic
    request that had a reusable space to be carved from.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.carves: list[tuple[int, int | None, int]] = []
        self._pool_placements = _Recording()  # every pool placement, as it happens

    def _allocate_dynamic(self, req_id, size, hints):
        if not self.enable_dynamic_reuse or self._pool_size == 0:
            self.stats.extra["dynamic_fallback_bytes"] += size
            return self._allocate_fallback(req_id, size, hints)
        group_key = self.plan.dynamic_request_groups.get(req_id)
        if group_key is None:
            group_key = (hints.module, hints.module)
        reusable = self.plan.dynamic_reusable_spaces.get(group_key)
        if reusable is None and hints.module:
            for (alloc_module, _free_module), space in self.plan.dynamic_reusable_spaces.items():
                if alloc_module == hints.module:
                    reusable = space
                    break
        address = best_fit_within(self._available, reusable, size) if reusable else None
        if reusable:
            self.carves.append((req_id, address, size))
        if address is None:
            self.stats.extra["dynamic_fallback_bytes"] += size
            return self._allocate_fallback(req_id, size, hints)
        self._available.remove(address, address + size)
        self._pool_placements[req_id] = (address, address + size)
        self.stats.extra["dynamic_pool_bytes"] += size


class _Recording(dict):
    """A placement dict that logs every ``(req_id, span)`` stored in it."""

    def __init__(self):
        super().__init__()
        self.log: list[tuple[int, tuple[int, int]]] = []

    def __setitem__(self, req_id, span):
        self.log.append((req_id, span))
        super().__setitem__(req_id, span)


class _RecordingSet(IntervalSet):
    """A free list that logs ``(address or None, size)`` for every carve made from it."""

    __slots__ = ("log",)

    def carve_within(self, other, size):
        address = super().carve_within(other, size)
        self.log.append((address, size))
        return address


def _replay(trace: Trace, stalloc: STAlloc, cls: type[RuntimeAllocator]):
    device = Device(name="carve", capacity=CAPACITY)
    allocator = cls(
        device,
        stalloc.plan,
        enable_dynamic_reuse=stalloc.config.enable_dynamic_reuse,
        plan_validated=stalloc.config.validate_plan,
        profiled=stalloc.profile.trace.columns,
    )
    carves = allocator._available = _RecordingSet(allocator._available)
    carves.log = []
    answers = []
    batch_replay = allocator.batch_replay

    def spy(trace, stop_on_oom=True):
        answers.append(batch_replay(trace, stop_on_oom=stop_on_oom))
        return answers[-1]

    allocator.batch_replay = spy
    result = replay_trace(trace, allocator)
    state = {
        "result": result,
        "live_sizes": list(allocator._live_sizes.items()),
        "pool_placements": list(allocator._pool_placements.items()),
        "available": list(allocator._available),
        "allocated_bytes": allocator._allocated_bytes,
        "fallback": allocator.fallback.stats.snapshot(),
        "device": asdict(device.stats),
    }
    (answer,) = answers
    return allocator, answer, state, carves.log


def _assert_no_overlap(trace: Trace, placements: list[tuple[int, tuple[int, int]]]) -> None:
    """Walk the events: a pool placement never meets a live one."""
    spans = dict(placements)
    assert len(spans) == len(placements), "a request was placed twice"
    starts: list[int] = []
    ends: list[int] = []
    columns = trace.columns
    for kind, req_id in zip(columns.kind, columns.req_id):
        span = spans.get(req_id)
        if span is None:
            continue
        start, end = span
        index = bisect_left(starts, start)
        if kind == ALLOC:
            assert index == 0 or ends[index - 1] <= start, f"request {req_id} overlaps"
            assert index == len(starts) or end <= starts[index], f"request {req_id} overlaps"
            starts.insert(index, start)
            ends.insert(index, end)
        else:
            assert starts[index] == start
            del starts[index]
            del ends[index]


def _assert_same(trace: Trace, stalloc: STAlloc, *, batched: bool) -> dict:
    product, answer, fast, carves = _replay(trace, stalloc, RuntimeAllocator)
    oracle, oracle_answer, slow, _ = _replay(trace, stalloc, OracleRuntime)
    assert oracle_answer is None  # the oracle walks every event
    assert answer == (trace.num_events if batched else None)
    assert fast == slow
    # The product carved every dynamic request where the oracle did, so the
    # oracle's placements are the product's: no two live ones may overlap.
    assert carves == [(address, size) for _, address, size in oracle.carves]
    assert product.stats.extra["dynamic_pool_bytes"] > 0, "no dynamic request reached the pool"
    _assert_no_overlap(trace, oracle._pool_placements.log)
    return fast


def _moe_config(comm: bool, zero: int):
    name = "moe-tiny-comm" if comm else "moe-tiny-comm-free"
    case = _case_configs()[name]
    return case["config"].with_(zero_stage=zero), case["rank"], case["ep_rank"]


def _moe_trace(comm: bool, zero: int, seed: int) -> Trace:
    config, rank, ep_rank = _moe_config(comm, zero)
    return TraceGenerator(config, seed=seed, rank=rank, ep_rank=ep_rank).generate()


@pytest.mark.parametrize("zero", [0, 1])
@pytest.mark.parametrize("comm", [False, True], ids=["comm-free", "comm"])
@pytest.mark.parametrize("seed", range(4))
def test_the_profiled_trace_carves_what_the_global_walk_carves(seed, comm, zero):
    trace = _moe_trace(comm, zero, seed)
    _assert_same(trace, STAlloc.from_trace(trace), batched=True)


@pytest.mark.parametrize("zero", [0, 1])
@pytest.mark.parametrize("comm", [False, True], ids=["comm-free", "comm"])
@pytest.mark.parametrize("seed", range(4))
def test_a_foreign_trace_carves_what_the_global_walk_carves(seed, comm, zero):
    """Planned on seed s, replayed on seed s + 1: routing differs, so sizes do."""
    stalloc = STAlloc.from_trace(_moe_trace(comm, zero, seed))
    foreign = _moe_trace(comm, zero, seed + 1)
    _assert_same(foreign, stalloc, batched=False)


def test_only_the_profiled_trace_takes_the_one_pass_replay():
    trace = _moe_trace(True, 0, 0)
    stalloc = STAlloc.from_trace(trace)
    device = Device(name="carve", capacity=CAPACITY)
    assert stalloc.build_runtime_allocator(device).batch_replay(trace) == trace.num_events
    twin = _moe_trace(True, 0, 0)  # equal, but not the columns the plan profiled
    assert twin.digest() == trace.digest() and twin.columns is not trace.columns
    assert stalloc.build_runtime_allocator(device).batch_replay(twin) is None
    assert stalloc.build_runtime_allocator(device).batch_replay(trace, stop_on_oom=False) is None


# ---------------------------------------------------------------------- #
# Generator-free streams
# ---------------------------------------------------------------------- #
def _stream(seed: int, *, first_id: int = 0, modules: int = 5) -> Trace:
    """A seeded alloc/free stream through ``modules`` layers in order, half its requests dynamic.

    A dynamic request of an even layer is freed in its own layer, one of an
    odd layer in the next one, so an odd layer has no ``(layer, layer)``
    group: an unseen request there takes the same-module group fallback.
    """
    rng = random.Random(seed)
    phase = Phase(index=0, kind=PhaseKind.FORWARD, microbatch=0, chunk=0)
    events: list[TraceEvent] = []
    live: list[tuple[int, int, bool, str]] = []
    names = [f"layer{index}" for index in range(modules)]
    count = 400

    def free(entry, module):
        req_id, size, dyn, free_module = entry
        events.append(
            TraceEvent(EventKind.FREE, req_id, size, len(events), phase, free_module or module, dyn)
        )

    for offset in range(count):
        layer = offset * modules // count
        while live and rng.random() < 0.45:
            free(live.pop(rng.randrange(len(live))), names[layer])
        dyn = rng.random() < 0.5
        size = rng.randrange(1, 48) * 512
        free_layer = layer + 1 if layer % 2 and layer + 1 < modules else layer
        req_id = first_id + offset
        events.append(
            TraceEvent(EventKind.ALLOC, req_id, size, len(events), phase, names[layer], dyn)
        )
        live.append((req_id, size, dyn, names[free_layer] if dyn else ""))
    for entry in live[: len(live) // 2]:
        free(entry, "")
    spans: dict[str, list[int]] = {}
    for event in events:
        spans.setdefault(event.module, [event.time, event.time])[1] = event.time
    return make_trace(
        events,
        phases=[phase],
        module_spans={module: tuple(span) for module, span in spans.items() if module},
    )


@pytest.mark.parametrize("seed", range(6))
def test_a_stream_on_its_own_plan_carves_what_the_global_walk_carves(seed):
    stream = _stream(seed)
    _assert_same(stream, STAlloc.from_trace(stream), batched=True)


@pytest.mark.parametrize("seed", range(6))
def test_a_stream_on_another_streams_plan_takes_the_checked_fallbacks(seed):
    """Unseen dynamic requests find a group by their module, or by their alloc module alone."""
    stalloc = STAlloc.from_trace(_stream(seed))
    foreign = _stream(seed + 100, first_id=10_000)
    state = _assert_same(foreign, stalloc, batched=False)
    routing = stalloc.plan.dynamic_request_groups
    spaces = stalloc.plan.dynamic_reusable_spaces
    columns = foreign.columns
    unseen = {
        foreign.columns.modules[module]
        for kind, req_id, dyn, module in zip(
            columns.kind, columns.req_id, columns.dyn, columns.module_index
        )
        if kind == ALLOC and dyn and routing.get(req_id) is None
    }
    assert unseen, "every dynamic request of the foreign stream was profiled"
    assert any((module, module) in spaces for module in unseen)
    assert any(
        (module, module) not in spaces and any(key[0] == module for key in spaces)
        for module in unseen
    )
    assert state["result"].success
