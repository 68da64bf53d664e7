"""One synthesis per plan shape: what :class:`LastPlan` rests on, and what it guarantees.

The planner never reads a dynamic request's size (section 5.2 serves those
online), so traces whose routed-expert sizes alone differ have one plan.  The
EP ranks of one pipeline stage are such traces, and an
:class:`ExecutionContext` plans each run of them once.  These tests pin:

* the invariant: scaling every ``dyn`` request's size leaves
  ``SynthesizedPlan.to_json_dict()`` as it was, and the EP ranks of one stage
  plan alike;
* the shape: changing any one input the synthesizer reads -- a static size, a
  dynamic request's free module, one ``module_spans`` entry, ``end_time``, an
  ``STAllocConfig`` knob -- makes the context synthesize again;
* the guarantee: every plan a sweep hands to a ``RuntimeAllocator`` passed
  ``validate()``, which runs once per distinct shape, and the rows equal those
  of a sweep that plans every trace afresh.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager

import pytest

import repro.core.synthesizer as synthesizer_module
from repro.core.columns import COLUMN_NAMES, FREE, TraceColumns
from repro.core.plan import StaticAllocationPlan
from repro.core.profiler import ProfileResult
from repro.core.runtime import RuntimeAllocator
from repro.core.stalloc import STAlloc, STAllocConfig
from repro.core.synthesizer import LastPlan, PlanSynthesizer
from repro.experiments.common import A800_WORKLOADS
from repro.obs.tracer import Tracer, current_tracer, install
from repro.simulator import ExecutionContext
from repro.sweep import SweepSpec, run_sweep
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.trace import Trace
from repro.workloads.training import TrainingConfig
from tests.trace_oracle import requests_of


def _moe_tiny() -> TrainingConfig:
    return TrainingConfig(
        model=get_model("moe-tiny"),
        parallelism=ParallelismConfig(pipeline_parallel=2, data_parallel=4, expert_parallel=4),
        micro_batch_size=1,
        num_microbatches=4,
        moe_imbalance=0.6,
    )


PRESETS = {
    "moe-tiny": _moe_tiny,
    "qwen1.5-moe-R": lambda: A800_WORKLOADS["qwen1.5-moe-a2.7b"].preset("R"),
}


@pytest.fixture(scope="module", params=sorted(PRESETS))
def routed(request) -> Trace:
    return ExecutionContext().trace(PRESETS[request.param]())


@pytest.fixture(scope="module")
def tiny() -> Trace:
    return ExecutionContext().trace(_moe_tiny())


def with_columns(trace: Trace, *, module_spans: dict | None = None, **columns) -> Trace:
    """``trace`` with some event columns (or its module spans) replaced."""
    events = trace.columns
    values = {name: columns.get(name, getattr(events, name)) for name in COLUMN_NAMES}
    return Trace(
        columns=TraceColumns(**values, modules=events.modules, tags=events.tags),
        metadata=trace.metadata,
        phases=trace.phases,
        module_spans=trace.module_spans if module_spans is None else module_spans,
    )


def scale_dynamic_sizes(trace: Trace, scale) -> Trace:
    """Every ``dyn`` event's size, alloc and free alike, mapped through ``scale``."""
    events = trace.columns
    sizes = array("q", (scale(size) if dyn else size for size, dyn in zip(events.size, events.dyn)))
    return with_columns(trace, size=sizes)


def count_global_plans(monkeypatch) -> list[None]:
    """One entry per ``build_global_plan`` call the synthesizer makes from now on."""
    calls: list[None] = []
    real = synthesizer_module.build_global_plan

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(synthesizer_module, "build_global_plan", counted)
    return calls


@contextmanager
def counters():
    """The obs counters of the block, from a tracer with no sinks."""
    counted: dict = {}
    previous = install(Tracer(sinks=[]))
    try:
        yield counted
        counted.update(current_tracer().metrics.snapshot()["counters"])
    finally:
        install(previous)


def without_timing(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "synthesis_seconds"}


# ---------------------------------------------------------------------- #
# The invariant
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "scale",
    [lambda size: 3 * size, lambda size: size // 2 + 1, lambda size: size + 4096],
    ids=["x3", "half", "plus-4k"],
)
def test_dynamic_sizes_do_not_move_the_plan(routed, scale):
    scaled = scale_dynamic_sizes(routed, scale)
    assert scaled.columns.size != routed.columns.size
    fresh = PlanSynthesizer().synthesize(ProfileResult(routed)).to_json_dict()
    assert PlanSynthesizer().synthesize(ProfileResult(scaled)).to_json_dict() == fresh


def test_the_ep_ranks_of_one_stage_plan_once(monkeypatch):
    """Each stage's EP ranks differ in routed sizes only: one synthesis a stage."""
    config = _moe_tiny()
    stages, experts = config.parallelism.pipeline_parallel, config.parallelism.expert_parallel
    ctx = ExecutionContext()
    ranks = [
        ctx.trace(config, rank=pp, ep_rank=ep) for pp in range(stages) for ep in range(experts)
    ]
    assert len({trace.digest() for trace in ranks}) == len(ranks)
    fresh = [STAlloc.from_trace(trace) for trace in ranks]
    calls = count_global_plans(monkeypatch)
    shared = [ctx.stalloc(trace, STAllocConfig()) for trace in ranks]
    assert len(calls) == stages
    for index, (trace, fresh_one, shared_one) in enumerate(zip(ranks, fresh, shared)):
        first = shared[index - index % experts]
        assert shared_one.plan.static_plan is first.plan.static_plan
        if shared_one is not first:
            assert shared_one.plan.synthesis_info is not first.plan.synthesis_info
        # Byte-identical plan entries, and each keeps its own profile and report.
        assert shared_one.dumps() == fresh_one.dumps()
        assert shared_one.profile.trace is trace
        assert without_timing(shared_one.planning_report()) == without_timing(
            fresh_one.planning_report()
        )
        assert shared_one.plan.synthesis_seconds is not None


def test_plan_cache_entries_of_shared_plans_are_the_fresh_ones(tmp_path):
    """Through the plan cache, each later EP rank's entry reuses the plan's text."""
    config = _moe_tiny()
    ctx = ExecutionContext(cache_dir=tmp_path)
    ranks = [ctx.trace(config, ep_rank=ep) for ep in range(config.parallelism.expert_parallel)]
    shared = [ctx.stalloc(trace, STAllocConfig()) for trace in ranks]
    assert ctx.cache.stats.plan_misses == len(ranks)
    for trace, stalloc in zip(ranks, shared):
        stored = ctx.cache.plan_path(ctx.cache.plan_key(trace, STAllocConfig())).read_text()
        assert stored == STAlloc.from_trace(trace).dumps() == stalloc.dumps()
        assert json.dumps(json.loads(stored), separators=(",", ":")) == stored
        assert stalloc.plan.stored_text is shared[0].plan.stored_text


def test_fetching_a_trace_of_another_stage_forgets_the_plan(monkeypatch):
    """The one entry lives as long as its stage's traces are being fetched."""
    config = _moe_tiny()
    ctx = ExecutionContext()
    first, sibling = ctx.trace(config, ep_rank=0), ctx.trace(config, ep_rank=1)
    ctx.stalloc(first, STAllocConfig())
    calls = count_global_plans(monkeypatch)
    ctx.trace(config, ep_rank=2)  # the same stage: remembered
    ctx.stalloc(sibling, STAllocConfig())
    assert len(calls) == 0
    ctx.trace(config, rank=1)  # another stage: forgotten
    ctx.stalloc(sibling, STAllocConfig())
    assert len(calls) == 1


def test_from_trace_without_a_context_plans_every_call(monkeypatch, tiny):
    """``from_trace`` without a context plans every call, one shape or not."""
    calls = count_global_plans(monkeypatch)
    STAlloc.from_trace(tiny)
    STAlloc.from_trace(scale_dynamic_sizes(tiny, lambda size: 2 * size))
    assert len(calls) == 2


# ---------------------------------------------------------------------- #
# The shape: one changed input, one more synthesis
# ---------------------------------------------------------------------- #
def _static_size_changed(trace: Trace) -> ProfileResult:
    events = trace.columns
    freed = {req_id for kind, req_id in zip(events.kind, events.req_id) if kind == FREE}
    target = next(
        req_id for req_id, dyn in zip(events.req_id, events.dyn) if not dyn and req_id in freed
    )
    sizes = array("q", events.size)
    for position, req_id in enumerate(events.req_id):
        if req_id == target:
            sizes[position] += 512
    return ProfileResult(with_columns(trace, size=sizes))


def _dynamic_free_module_changed(trace: Trace) -> ProfileResult:
    events = trace.columns
    position = next(
        position
        for position, (kind, dyn) in enumerate(zip(events.kind, events.dyn))
        if kind == FREE and dyn
    )
    current = events.modules[events.module_index[position]]
    other = next(
        index for index, name in enumerate(events.modules) if name and name != current
    )
    modules = array("i", events.module_index)
    modules[position] = other
    return ProfileResult(with_columns(trace, module_index=modules))


def _module_span_changed(trace: Trace) -> ProfileResult:
    spans = dict(trace.module_spans)
    name = next(iter(spans))
    start, end = spans[name]
    spans[name] = (start, end + 1)
    return ProfileResult(with_columns(trace, module_spans=spans))


def _end_time_changed(trace: Trace) -> ProfileResult:
    profile = ProfileResult(trace)
    profile.end_time += 1
    return profile


SHAPE_CHANGES = {
    "static-size": (_static_size_changed, STAllocConfig()),
    "dynamic-free-module": (_dynamic_free_module_changed, STAllocConfig()),
    "module-span": (_module_span_changed, STAllocConfig()),
    "end-time": (_end_time_changed, STAllocConfig()),
    "config-knob": (ProfileResult, STAllocConfig(enable_gap_insertion=False)),
    "same-shape": (
        lambda trace: ProfileResult(scale_dynamic_sizes(trace, lambda size: 5 * size)),
        STAllocConfig(),
    ),
}


@pytest.mark.parametrize("change", sorted(SHAPE_CHANGES))
def test_each_shape_input_makes_the_context_synthesize_again(monkeypatch, tiny, change):
    make_profile, config = SHAPE_CHANGES[change]
    last = LastPlan()
    first = last.synthesize(ProfileResult(tiny), STAllocConfig())
    calls = count_global_plans(monkeypatch)
    with counters() as counted:
        second = last.synthesize(make_profile(tiny), config)
    reused = counted.get("plan.reused", 0)
    if change == "same-shape":
        assert (len(calls), reused) == (0, 1)
        assert second.static_plan is first.static_plan
        assert second.synthesis_info == first.synthesis_info
        assert second.synthesis_info is not first.synthesis_info
    else:
        assert (len(calls), reused) == (1, 0)
        assert second.static_plan is not first.static_plan
        assert last.plan is second  # the new shape is the one remembered


def test_a_lookup_of_another_request_count_never_builds_a_shape(monkeypatch, tiny):
    """A miss on the request count costs that one comparison."""
    last = LastPlan()
    last.synthesize(ProfileResult(tiny), STAllocConfig())
    other = ProfileResult(ExecutionContext().trace(_moe_tiny(), rank=1))
    assert other.num_requests != len(last.shape.columns.req_id)
    built = []
    real_init = synthesizer_module.PlanShape.__init__

    def counted_init(self, *args):
        built.append(None)
        real_init(self, *args)

    monkeypatch.setattr(synthesizer_module.PlanShape, "__init__", counted_init)
    monkeypatch.setattr(
        synthesizer_module.PlanShape,
        "__eq__",
        lambda self, other: pytest.fail("compared shapes of different request counts"),
    )
    last.synthesize(other, STAllocConfig())
    assert built == [None]  # the shape remembered after synthesis, none for the lookup


# ---------------------------------------------------------------------- #
# The guarantee, through a sweep
# ---------------------------------------------------------------------- #
def _routed_spec() -> SweepSpec:
    return SweepSpec.from_dict(
        {
            "name": "plan-shape-memo",
            "model": "moe-tiny",
            "parallelism": {"pipeline_parallel": 2, "data_parallel": 4, "expert_parallel": 4},
            "base": {"num_microbatches": 4, "moe_imbalance": 0.6},
            "grid": {"micro_batch_size": [1, 2]},
            "allocators": ["torch2.3", "stalloc"],
            "ranks": "all",
        }
    )


def _shape_oracle(trace: Trace) -> tuple:
    """What the planner reads, from the trace-oracle pairing (not the product's)."""
    rows = tuple(
        (
            request.req_id, 0 if request.dyn else request.size, request.alloc_time,
            request.free_time, request.alloc_phase.index, request.free_phase.index, request.dyn,
            (request.alloc_module, request.free_module) if request.dyn else None,
        )
        for request in requests_of(trace)
    )
    return rows, tuple(sorted(trace.module_spans.items())), trace.end_time()


def test_every_plan_a_sweep_replays_passed_validate_once_per_shape(monkeypatch):
    validated: list[StaticAllocationPlan] = []
    handed: list[StaticAllocationPlan] = []
    real_validate = StaticAllocationPlan.validate
    real_init = RuntimeAllocator.__init__

    def recording_validate(self):
        real_validate(self)
        validated.append(self)  # only a plan that passed

    def recording_init(self, device, plan, **options):
        handed.append(plan.static_plan)
        real_init(self, device, plan, **options)

    monkeypatch.setattr(StaticAllocationPlan, "validate", recording_validate)
    monkeypatch.setattr(RuntimeAllocator, "__init__", recording_init)
    spec = _routed_spec()
    with counters() as counted:
        result = run_sweep(spec, jobs=1)
    reused = counted["plan.reused"]
    assert all(row["status"] == "ok" for row in result.rows)

    ctx = ExecutionContext()
    shapes = set()
    replays = 0
    for point in spec.expand():
        if point.allocator != "stalloc":
            continue
        parallelism = point.config.parallelism
        for pp in range(parallelism.pipeline_parallel):
            for ep in range(parallelism.expert_parallel):
                trace = ctx.trace(point.config, rank=pp, ep_rank=ep)
                shapes.add((point.config.micro_batch_size, _shape_oracle(trace)))
                replays += 1
    assert len(handed) == replays
    assert all(any(plan is passed for passed in validated) for plan in handed)
    assert len(validated) == len(shapes) < replays
    assert reused == replays - len(shapes)


def test_a_sweep_that_plans_every_trace_afresh_gives_the_same_rows(monkeypatch):
    def comparable(result):
        return [{k: v for k, v in row.items() if k != "elapsed_seconds"} for row in result.rows]

    shared = comparable(run_sweep(_routed_spec(), jobs=1))
    monkeypatch.setattr(
        LastPlan,
        "synthesize",
        lambda self, profile, config: PlanSynthesizer(config).synthesize(profile),
    )
    assert comparable(run_sweep(_routed_spec(), jobs=1)) == shared
