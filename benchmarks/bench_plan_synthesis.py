"""Micro-benchmarks of the offline pipeline's building blocks.

Plan synthesis must stay cheap (Table 2 reports seconds to a few minutes even
for 280k-request MoE traces), so these benchmarks time the profiler pairing,
the static plan synthesis, and the dynamic-reusable-space sweep separately on
a mid-size trace, plus the runtime replay throughput of the finished plan.
"""

from __future__ import annotations

import pytest

from repro.core.profiler import AllocationProfiler
from repro.core.stalloc import STAlloc
from repro.core.synthesizer import PlanSynthesizer
from repro.core.dynamic_space import locate_dynamic_reusable_spaces
from repro.experiments.common import A800_WORKLOADS
from repro.gpu.device import Device, GIB
from repro.simulator.replay import replay_trace
from repro.simulator import ExecutionContext


@pytest.fixture(scope="module")
def dense_trace():
    return ExecutionContext().trace(A800_WORKLOADS["llama2-7b"].preset("R"))


@pytest.fixture(scope="module")
def moe_trace():
    return ExecutionContext().trace(A800_WORKLOADS["qwen1.5-moe-a2.7b"].preset("R"))


def test_profiler_pairing(benchmark, dense_trace):
    profile = benchmark(lambda: AllocationProfiler().profile(dense_trace))
    assert profile.num_requests == dense_trace.num_requests


def test_static_plan_synthesis(benchmark, dense_trace):
    profile = AllocationProfiler().profile(dense_trace)
    plan = benchmark(lambda: PlanSynthesizer().synthesize(profile))
    assert plan.pool_size > 0


def test_dynamic_space_location(benchmark, moe_trace):
    profile = AllocationProfiler().profile(moe_trace)
    static_plan = PlanSynthesizer().synthesize(profile).static_plan
    spaces = benchmark(
        lambda: locate_dynamic_reusable_spaces(
            profile.dynamic_requests, static_plan, profile.module_spans
        )
    )
    assert spaces


def test_runtime_replay(benchmark, dense_trace):
    stalloc = STAlloc.from_trace(dense_trace)

    def replay():
        device = Device(name="bench", capacity=200 * GIB)
        allocator = stalloc.build_runtime_allocator(device)
        return replay_trace(dense_trace, allocator)

    result = benchmark(replay)
    assert result.success
