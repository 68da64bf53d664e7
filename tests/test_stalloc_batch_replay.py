"""STAlloc's static replay as a plan lookup: the batch path against the event loop.

``RuntimeAllocator.batch_replay`` sets the end state of an all-static trace
from its columns, on the strength of ``StaticAllocationPlan.validate()``.
The contract is bit-identity with the event loop: the ``ReplayResult``, the
allocator's stats snapshot, its live sizes, pool placements, free pool
intervals and allocated bytes, and the device, on

* every trace of every sweep and search preset that replays STAlloc, and of
  the golden trace cases -- the all-static ones take the batch path,
  the rest decline;
* a seeded fuzz that breaks one precondition per case, where the batch path
  must decline and the loop's result stay what it is.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import asdict

import pytest

from repro.allocators.registry import STALLOC_NO_REUSE
from repro.core.columns import ALLOC, COLUMN_NAMES, FREE, TraceColumns
from repro.core.config import STAllocConfig
from repro.core.stalloc import STAlloc
from repro.gpu.device import GIB, Device
from repro.search.presets import available_search_presets, load_search_spec
from repro.simulator.ranks import job_rank_classes
from repro.simulator.replay import replay_trace
from repro.sweep.spec import STALLOC_ALLOCATORS, available_presets, load_spec
from repro.workloads.parallelism import normalize_rank
from repro.workloads.trace import Trace
from repro.workloads.tracegen import TraceGenerator
from tests.test_golden_traces import _case_configs

CAPACITY = 1024 * GIB


def _state(allocator) -> dict:
    """Everything a replay leaves behind, dict orders included."""
    return {
        "stats": allocator.stats.snapshot(),
        "live_sizes": list(allocator._live_sizes.items()),
        "pool_placements": list(allocator._pool_placements.items()),
        "available": list(allocator._available),
        "allocated_bytes": allocator._allocated_bytes,
        "fallback": allocator.fallback.stats.snapshot(),
        "device": asdict(allocator.device.stats),
    }


def _both_paths(trace: Trace, stalloc: STAlloc, prepare=None):
    """Replay ``trace`` with the batch path allowed and with the loop forced.

    Returns what ``batch_replay`` answered, and each path's result and state.
    ``prepare`` runs on both allocators first.
    """
    answers = []
    fast = stalloc.build_runtime_allocator(Device(name="fast", capacity=CAPACITY))
    slow = stalloc.build_runtime_allocator(Device(name="slow", capacity=CAPACITY))
    batch_replay = fast.batch_replay

    def spy(trace, stop_on_oom=True):
        answers.append(batch_replay(trace, stop_on_oom=stop_on_oom))
        return answers[-1]

    fast.batch_replay = spy
    slow.batch_replay = lambda trace, stop_on_oom=True: None
    if prepare is not None:
        prepare(fast)
        prepare(slow)
    fast_result = replay_trace(trace, fast)
    slow_result = replay_trace(trace, slow)
    (answer,) = answers
    return answer, (fast_result, _state(fast)), (slow_result, _state(slow))


def _assert_identical(trace: Trace, stalloc: STAlloc, *, batched: bool) -> None:
    answer, fast, slow = _both_paths(trace, stalloc)
    assert fast == slow
    assert answer == (trace.num_events if batched else None)


def _all_static(trace: Trace) -> bool:
    return not any(trace.columns.dyn)


# ---------------------------------------------------------------------- #
# Every trace the presets and the golden cases replay through STAlloc
# ---------------------------------------------------------------------- #
def _preset_cases() -> dict[str, tuple]:
    """``label -> (config, seed, scale, rank, ep_rank, STAllocConfig)``, one per distinct pair."""
    cases: dict[tuple, tuple] = {}
    points = [
        (name, point) for name in available_presets() for point in load_spec(name).expand()
    ] + [
        (name, point)
        for name in available_search_presets()
        for point in load_search_spec(name).enumerate_candidates()
    ]
    for name, point in points:
        if point.allocator not in STALLOC_ALLOCATORS:
            continue
        params = dict(point.stalloc_overrides)
        if point.allocator == STALLOC_NO_REUSE:
            params.setdefault("enable_dynamic_reuse", False)
        budgets = dict(point.device_memory_by_rank)
        for members, _ in job_rank_classes(
            point.config, point.ranks, budgets, point.device_capacity_gib
        ):
            pp, ep = normalize_rank(members[0])
            key = (point.config, point.seed, point.scale, pp, ep, tuple(sorted(params.items())))
            label = f"{name}/{point.config.label or point.index}/r{pp}.{ep}/{sorted(params.items())}"
            cases.setdefault(key, (label, STAllocConfig(**params)))
    return {label: (*key[:5], config) for key, (label, config) in cases.items()}


PRESET_CASES = _preset_cases()


@pytest.mark.parametrize("label", sorted(PRESET_CASES))
def test_every_preset_trace_replays_identically(label):
    config, seed, scale, rank, ep_rank, stalloc_config = PRESET_CASES[label]
    trace = TraceGenerator(config, seed=seed, scale=scale, rank=rank, ep_rank=ep_rank).generate()
    stalloc = STAlloc.from_trace(trace, stalloc_config)
    _assert_identical(
        trace, stalloc, batched=_all_static(trace) and stalloc_config.validate_plan
    )


def _golden_trace(name: str) -> Trace:
    case = _case_configs()[name]
    return TraceGenerator(
        case["config"], seed=case["seed"], rank=case["rank"], ep_rank=case["ep_rank"]
    ).generate()


@pytest.mark.parametrize("name", sorted(_case_configs()))
@pytest.mark.parametrize("reuse", [True, False], ids=["stalloc", "stalloc-noreuse"])
def test_every_golden_trace_replays_identically(name, reuse):
    trace = _golden_trace(name)
    stalloc = STAlloc.from_trace(trace, STAllocConfig(enable_dynamic_reuse=reuse))
    _assert_identical(trace, stalloc, batched=_all_static(trace))


def test_the_all_static_golden_cases_are_the_dense_ones():
    """The lookup covers dense training and generation; every MoE case declines."""
    static = {name for name in _case_configs() if _all_static(_golden_trace(name))}
    assert static == {
        "gpt-tiny", "gpt-tiny-recompute-last-stage",
        "gpt-tiny-generation", "gpt-tiny-generation-capped",
    }


def test_a_plan_loaded_from_its_stored_form_takes_the_batch_path():
    trace = _golden_trace("gpt-tiny")
    loaded = STAlloc.from_json_dict(STAlloc.from_trace(trace).to_json_dict())
    assert len(loaded.profile.columns.req_id) == 0  # nothing but the stored plan
    _assert_identical(trace, loaded, batched=True)


# ---------------------------------------------------------------------- #
# Seeded fuzz: one broken precondition per case
# ---------------------------------------------------------------------- #
def _with_columns(trace: Trace, **columns) -> Trace:
    stored = {name: getattr(trace.columns, name) for name in COLUMN_NAMES}
    stored.update(columns)
    return Trace(
        metadata=trace.metadata,
        phases=trace.phases,
        module_spans=trace.module_spans,
        columns=TraceColumns(**stored, modules=trace.columns.modules, tags=trace.columns.tags),
    )


def _spread(trace: Trace) -> Trace:
    """``trace`` with every tick doubled, so a free can move a tick without a collision."""
    return _with_columns(trace, time=array("q", (2 * tick for tick in trace.columns.time)))


def _events_of(trace: Trace, req_id: int) -> list[int]:
    return [index for index, rid in enumerate(trace.columns.req_id) if rid == req_id]


def _freed_request(trace: Trace, rng: random.Random) -> int:
    columns = trace.columns
    return columns.req_id[rng.choice([i for i, kind in enumerate(columns.kind) if kind == FREE])]


def _one_dyn_flag(trace, rng):
    dyn = array("b", trace.columns.dyn)
    for index in _events_of(trace, _freed_request(trace, rng)):
        dyn[index] = 1
    return trace, _with_columns(trace, dyn=dyn), STAllocConfig()


def _one_size_off_its_plan_row(trace, rng):
    size = array("q", trace.columns.size)
    for index in _events_of(trace, _freed_request(trace, rng)):
        size[index] += 512
    return trace, _with_columns(trace, size=size), STAllocConfig()


def _one_free_moved_a_tick(trace, rng):
    planned = _spread(trace)
    time = array("q", planned.columns.time)
    free_index = _events_of(planned, _freed_request(planned, rng))[-1]
    time[free_index] += rng.choice([-1, 1])
    return planned, _with_columns(planned, time=time), STAllocConfig()


def _two_events_on_one_tick(trace, rng):
    time = array("q", trace.columns.time)
    index = rng.randrange(1, len(time))
    time[index] = time[index - 1]
    shared = _with_columns(trace, time=time)
    return shared, shared, STAllocConfig()


def _two_requests_numbered_out_of_alloc_order(trace, rng):
    """A plan keyed by request id cannot be matched against alloc order: decline."""
    req_id = trace.columns.req_id
    a, b = rng.sample(sorted(set(req_id)), 2)
    swapped = array("q", (b if rid == a else a if rid == b else rid for rid in req_id))
    renumbered = _with_columns(trace, req_id=swapped)
    return renumbered, renumbered, STAllocConfig()


def _unvalidated_plan(trace, rng):
    return trace, trace, STAllocConfig(validate_plan=False)


CASES = {
    "one-dyn-flag": _one_dyn_flag,
    "one-size-off-its-plan-row": _one_size_off_its_plan_row,
    "one-free-moved-a-tick": _one_free_moved_a_tick,
    "two-events-on-one-tick": _two_events_on_one_tick,
    "two-requests-numbered-out-of-alloc-order": _two_requests_numbered_out_of_alloc_order,
    "validate-plan-off": _unvalidated_plan,
}

BASES = ["gpt-tiny", "gpt-tiny-recompute-last-stage", "gpt-tiny-generation"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_broken_precondition_declines_and_keeps_the_loop_result(case, seed):
    rng = random.Random(f"{case}/{seed}")
    planned, replayed, stalloc_config = CASES[case](_golden_trace(rng.choice(BASES)), rng)
    assert _all_static(planned)
    stalloc = STAlloc.from_trace(planned, stalloc_config)
    answer, fast, slow = _both_paths(replayed, stalloc)
    assert answer is None and fast == slow
    if planned is not replayed:  # the plan itself still batch-replays its own trace
        _assert_identical(planned, stalloc, batched=stalloc_config.validate_plan)


def test_another_ranks_trace_declines():
    dense = _case_configs()["gpt-tiny"]["config"]
    rank0, rank1 = (TraceGenerator(dense, seed=0, rank=rank).generate() for rank in (0, 1))
    answer, fast, slow = _both_paths(rank1, STAlloc.from_trace(rank0))
    assert answer is None and fast == slow


@pytest.mark.parametrize("seed", range(3))
def test_an_allocator_that_has_replayed_an_event_declines(seed):
    trace = _golden_trace(random.Random(seed).choice(BASES))
    columns = trace.columns
    first = next(i for i, kind in enumerate(columns.kind) if kind == ALLOC)

    def one_event(allocator):
        allocator.allocate(-1, columns.size[first])

    answer, fast, slow = _both_paths(trace, STAlloc.from_trace(trace), prepare=one_event)
    assert answer is None and fast == slow
    assert fast[1]["live_sizes"][0] == (-1, columns.size[first])
