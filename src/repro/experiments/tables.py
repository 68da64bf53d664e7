"""Tables 1-3 of the evaluation section.

* Table 1: which training configurations of Qwen2.5-14B on 16 GPUs survive
  each allocator, and what throughput each configuration achieves.
* Table 2: profiling and plan-synthesis time for traces of increasing size.
* Table 3: composition of allocation types (static vs dynamic fallback) for
  the MoE model, with and without dynamic reuse of the static pool.
"""

from __future__ import annotations

import time

from repro.allocators.native import DRIVER_CALL_SECONDS
from repro.core.profiler import AllocationProfiler
from repro.core.synthesizer import PlanSynthesizer
from repro.experiments.common import (
    A800_WORKLOADS,
    ExperimentResult,
    PRESETS,
    register_experiment,
    run_lineups,
)
from repro.gpu.device import GIB
from repro.simulator.execution import ExecutionContext
from repro.simulator.runner import STALLOC, STALLOC_NO_REUSE
from repro.timeline import simulate_timeline
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.training import TrainingConfig


# ---------------------------------------------------------------------- #
# Table 1
# ---------------------------------------------------------------------- #
def _table1_configs(micro_batch_size: int, num_microbatches: int) -> list[tuple[str, TrainingConfig]]:
    """The four Qwen2.5-14B configurations of Table 1 (16 GPUs)."""
    model = get_model("qwen2.5-14b")

    def build(label, tp, pp, vpp, recompute):
        parallelism = ParallelismConfig(
            tensor_parallel=tp,
            pipeline_parallel=pp,
            data_parallel=16 // (tp * pp),
            virtual_pipeline_chunks=vpp,
        )
        return TrainingConfig(
            model=model,
            parallelism=parallelism,
            micro_batch_size=micro_batch_size,
            num_microbatches=num_microbatches,
            recompute=recompute,
            label=label,
        )

    return [
        ("Original (VPP, TP=2)", build("original", 2, 2, 2, False)),
        ("Disable VPP", build("no-vpp", 2, 2, 1, False)),
        ("Recomputation", build("recompute", 2, 2, 1, True)),
        ("TP=4", build("tp4", 4, 2, 1, False)),
    ]


@register_experiment("table1")
def run_table1(
    *,
    micro_batch_size: int = 2,
    num_microbatches: int = 8,
    device_capacity_gib: float | None = None,
    quick: bool = False,
    ctx: ExecutionContext,
) -> ExperimentResult:
    """Feasibility and throughput of Qwen2.5-14B configurations on 16 GPUs."""
    configs = _table1_configs(micro_batch_size, num_microbatches)
    if quick:
        configs = configs[:2]
    lineup = ["torch2.6", "torch_es", STALLOC]
    runs = run_lineups(
        dict(configs),
        lineup,
        device_name="H200-141GB",
        device_capacity_gib=device_capacity_gib,
        ctx=ctx,
    )
    rows = []
    for label, config in configs:
        torch_job, es_job, stalloc_job = (runs[label, name] for name in lineup)
        rows.append(
            {
                "config": label,
                "pytorch": "OK" if torch_job.success else "OOM",
                "pytorch_es": "OK" if es_job.success else "OOM",
                "stalloc": "OK" if stalloc_job.success else "OOM",
                "reserved_torch_gib": round(torch_job.peak_reserved_gib, 1),
                "reserved_stalloc_gib": round(stalloc_job.peak_reserved_gib, 1),
                # Priced overhead-free: the configuration's own throughput.
                "throughput_tflops": round(
                    simulate_timeline(config, gpu="H200-141GB").tflops_per_gpu, 1
                ),
            }
        )
    best = max(rows, key=lambda row: row["throughput_tflops"])
    return ExperimentResult(
        experiment_id="table1",
        title="Qwen2.5-14B on 16 GPUs: configuration feasibility and throughput",
        rows=rows,
        notes=(
            f"Highest-throughput configuration: {best['config']} at {best['throughput_tflops']} TFLOPS. "
            "Paper: only STAlloc runs the original VPP configuration, which outperforms the "
            "fallback configurations by 5.4-32.5% (Table 1)."
        ),
    )


# ---------------------------------------------------------------------- #
# Table 2
# ---------------------------------------------------------------------- #
@register_experiment("table2")
def run_table2(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Profiling and plan-synthesis time for traces of increasing complexity."""
    workloads = [
        ("GPT-2-N", "gpt2-345m", "Naive"),
        ("GPT-2-R", "gpt2-345m", "R"),
        ("Llama2-7B-N", "llama2-7b", "Naive"),
        ("Llama2-7B-R", "llama2-7b", "R"),
        ("Qwen1.5-MoE-N", "qwen1.5-moe-a2.7b", "Naive"),
        ("Qwen1.5-MoE-R", "qwen1.5-moe-a2.7b", "R"),
    ]
    if quick:
        workloads = workloads[:2]
    profiler = AllocationProfiler()
    synthesizer = PlanSynthesizer()
    rows = []
    for label, model_key, preset in workloads:
        workload = A800_WORKLOADS[model_key]
        config = workload.preset(preset)
        trace = ctx.trace(config)
        # Profiling cost: the paper's profiler runs `iterations` iterations
        # through the native GPU APIs, paying one driver call per event.
        iteration_seconds = simulate_timeline(config, gpu="A800-80GB").iteration_seconds
        native_overhead = trace.num_events * DRIVER_CALL_SECONDS
        profile_seconds = profiler.iterations * (iteration_seconds + native_overhead)
        started = time.perf_counter()
        profile = profiler.profile(trace)
        plan = synthesizer.synthesize(profile)
        plan_seconds = time.perf_counter() - started
        rows.append(
            {
                "config": label,
                "num_requests": trace.num_requests,
                "t_profile_s": round(profile_seconds, 1),
                "t_plan_s": round(plan_seconds, 2),
                "static_pool_gib": round(plan.pool_size / GIB, 2),
            }
        )
    return ExperimentResult(
        experiment_id="table2",
        title="Profiling and plan-synthesis time",
        rows=rows,
        notes=(
            "t_profile models three profiled iterations through the native GPU APIs; t_plan is the "
            "measured wall-clock of this implementation's plan synthesizer (paper: seconds to a few "
            "minutes, Table 2)."
        ),
    )


# ---------------------------------------------------------------------- #
# Table 3
# ---------------------------------------------------------------------- #
@register_experiment("table3")
def run_table3(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Composition of allocation types for Qwen1.5-MoE under each preset."""
    workload = A800_WORKLOADS["qwen1.5-moe-a2.7b"]
    presets = ["Naive", "R"] if quick else PRESETS
    configs = {preset: workload.preset(preset) for preset in presets}
    lineup = [STALLOC_NO_REUSE, STALLOC]
    runs = run_lineups(configs, lineup, device_name=workload.device_name, ctx=ctx)
    rows = []
    for preset in presets:
        without, with_reuse = (runs[preset, name].class_runs[0] for name in lineup)
        report = with_reuse.planning_report
        fallback_without = without.replay.allocator_stats.get("fallback_peak_reserved", 0)
        fallback_with = with_reuse.replay.allocator_stats.get("fallback_peak_reserved", 0)
        rows.append(
            {
                "config": preset,
                "total_gib": round(report["peak_allocated_bytes"] / GIB, 2),
                "static_gib": round(report["peak_static_demand_bytes"] / GIB, 2),
                "dyn_fallback_no_reuse_gib": round(fallback_without / GIB, 2),
                "dyn_fallback_with_reuse_gib": round(fallback_with / GIB, 2),
            }
        )
    return ExperimentResult(
        experiment_id="table3",
        title="Composition of allocation types (Qwen1.5-MoE)",
        rows=rows,
        notes=(
            "Static allocations dominate total memory; enabling dynamic reuse shrinks the memory "
            "that falls back to the caching allocator, most visibly under recomputation (Table 3)."
        ),
    )
