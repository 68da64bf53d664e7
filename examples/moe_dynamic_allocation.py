#!/usr/bin/env python3
"""Scenario: Mixture-of-Experts training and the dynamic allocator.

MoE expert layers route tokens at runtime, so the sizes of expert activation
tensors are unknown when the plan is made.  STAlloc handles them with its
hybrid design: static requests follow the ahead-of-time plan, dynamic requests
reuse idle space of the static pool (Dynamic Reusable Space), and anything
else falls back to a caching allocator.  This example shows where every byte
of a Qwen1.5-MoE iteration ends up, with and without dynamic reuse (the §9.4
breakdown).

Run with:  python examples/moe_dynamic_allocation.py
"""

from repro.core.profiler import AllocationProfiler
from repro.core.stalloc import STAlloc, STAllocConfig
from repro.gpu.device import GIB, Device
from repro.simulator.replay import replay_trace
from repro.workloads import ParallelismConfig, TraceGenerator, get_model, preset_config


def describe(label: str, trace, config: STAllocConfig) -> None:
    stalloc = STAlloc.from_trace(trace, config)
    # An A800-80GB, 4 GiB of which the CUDA context and communication buffers hold.
    device = Device(name="A800-80GB", capacity=80 * GIB, reserved_overhead=4 * GIB)
    allocator = stalloc.build_runtime_allocator(device)
    result = replay_trace(trace, allocator)
    stats = result.allocator_stats
    print(f"--- {label} ---")
    print(f"  static pool            : {stalloc.plan.pool_size / GIB:6.2f} GiB")
    print(f"  dynamic served in pool : {stats['dynamic_pool_bytes'] / GIB:6.2f} GiB")
    print(f"  fell back to caching   : {stats['fallback_bytes'] / GIB:6.2f} GiB "
          f"(peak reserved {stats.get('fallback_peak_reserved', 0) / GIB:.2f} GiB)")
    print(f"  peak reserved          : {result.peak_reserved_gib:6.2f} GiB")
    print(f"  memory efficiency      : {100 * result.memory_efficiency:6.1f}%")


def main() -> None:
    model = get_model("qwen1.5-moe-a2.7b")
    config = preset_config(
        model,
        "R",
        parallelism=ParallelismConfig(
            tensor_parallel=1, pipeline_parallel=4, data_parallel=2, expert_parallel=4
        ),
        micro_batch_size=2,
        num_microbatches=8,
    )
    trace = TraceGenerator(config, seed=0).generate()
    profile = AllocationProfiler().profile(trace).summary()
    print(f"Qwen1.5-MoE iteration: {trace.num_requests} requests, "
          f"{profile['num_dynamic_requests']} dynamic (expert) requests")
    describe("STAlloc (full: static plan + dynamic reuse)", trace, STAllocConfig())
    describe("STAlloc without dynamic reuse", trace, STAllocConfig(enable_dynamic_reuse=False))


if __name__ == "__main__":
    main()
