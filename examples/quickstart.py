#!/usr/bin/env python3
"""Quickstart: plan GPU memory for one training iteration with STAlloc.

The workflow mirrors deploying the real system:

1. describe the training job (model, parallelism, optimizations);
2. profile one iteration's allocation requests (here: generate the trace);
3. synthesize the ahead-of-time allocation plan;
4. run the training iteration through STAlloc's runtime allocator and compare
   its memory efficiency against PyTorch's caching allocator.

Run with:  python examples/quickstart.py
"""

from repro.core.stalloc import STAlloc
from repro.gpu.device import GIB, Device
from repro.simulator.replay import replay_trace
from repro.simulator.runner import create_allocator
from repro.workloads import ParallelismConfig, TraceGenerator, TrainingConfig, get_model


def main() -> None:
    # 1. Describe the training job: GPT-2 on 8 GPUs with recomputation.
    config = TrainingConfig(
        model=get_model("gpt2-345m"),
        parallelism=ParallelismConfig(tensor_parallel=1, pipeline_parallel=4, data_parallel=2),
        micro_batch_size=16,
        num_microbatches=8,
        recompute=True,
        label="quickstart",
    )
    print(f"Training configuration: {config.describe()}")

    # 2. Profile one iteration (the allocation profiler's view of training).
    trace = TraceGenerator(config, seed=0).generate()
    print(f"Profiled {trace.num_requests} allocation requests "
          f"({trace.distinct_sizes()} distinct sizes > 512 B)")

    # 3. Synthesize the spatio-temporal allocation plan.
    stalloc = STAlloc.from_trace(trace)
    report = stalloc.planning_report()
    print(f"Static allocation plan: {stalloc.plan.pool_size / GIB:.2f} GiB pool, "
          f"{report['num_homophase_groups']} HomoPhase groups, "
          f"{report['num_fusions']} fusions, planned in {report['synthesis_seconds'] * 1e3:.0f} ms")

    # 4. Replay the iteration through STAlloc and through PyTorch's caching
    #    allocator, and compare peak memory efficiency E = M_a / M_r.
    #    Each runs on its own A800-80GB, 4 GiB of which the CUDA context and
    #    communication buffers hold.
    def a800() -> Device:
        return Device(name="A800-80GB", capacity=80 * GIB, reserved_overhead=4 * GIB)

    for name, allocator in (
        ("PyTorch caching allocator", create_allocator("torch2.3", a800())),
        ("STAlloc", stalloc.build_runtime_allocator(a800())),
    ):
        result = replay_trace(trace, allocator)
        print(
            f"{name:28s} reserved {result.peak_reserved_gib:6.2f} GiB for "
            f"{result.peak_allocated_gib:6.2f} GiB of tensors "
            f"-> efficiency {100 * result.memory_efficiency:5.1f}%, "
            f"fragmentation {result.peak_reserved_gib - result.peak_allocated_gib:4.2f} GiB"
        )


if __name__ == "__main__":
    main()
