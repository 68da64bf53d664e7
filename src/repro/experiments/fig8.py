"""Figure 8: memory efficiency across models, optimizations and allocators.

For GPT-2, Llama2-7B and Qwen1.5-MoE-A2.7B, every combination of optimization
preset (Naive/R/V/VR/ZR/ZOR) is replayed through the five allocators of the
paper's comparison (PyTorch 2.0, GMLake, PyTorch 2.3, PyTorch expandable
segments, STAlloc) and the peak memory efficiency is reported.
"""

from __future__ import annotations

from repro.experiments.common import (
    A800_WORKLOADS,
    ExperimentResult,
    FULL_LINEUP,
    PRESETS,
    efficiency_row,
    register_experiment,
    run_lineups,
)
from repro.gpu.device import MIB
from repro.simulator.execution import ExecutionContext


def _run_model(
    model_key: str, experiment_id: str, *, quick: bool, ctx: ExecutionContext
) -> ExperimentResult:
    workload = A800_WORKLOADS[model_key]
    presets = ["Naive", "R"] if quick else PRESETS
    lineup = ["torch2.3", "stalloc"] if quick else FULL_LINEUP
    rows = []
    stalloc_frag = []
    baseline_frag = []
    configs = {preset: workload.preset(preset) for preset in presets}
    jobs = run_lineups(configs, lineup, device_name=workload.device_name, ctx=ctx)
    for (preset, allocator), job in jobs.items():
        run_ = job.class_runs[0]
        rows.append(efficiency_row(preset, allocator, run_))
        if allocator == "stalloc":
            stalloc_frag.append(run_.fragmentation_ratio)
        elif allocator == "torch2.3":
            baseline_frag.append(run_.fragmentation_ratio)
    reduction = 0.0
    if baseline_frag and sum(baseline_frag) > 0:
        reduction = 100.0 * (1.0 - sum(stalloc_frag) / sum(baseline_frag))
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"Memory efficiency of {workload.model_name} across optimizations and allocators",
        rows=rows,
        notes=(
            f"STAlloc reduces fragmentation memory vs PyTorch 2.3 by {reduction:.1f}% "
            "(paper reports 85-100% across these settings)."
        ),
    )


@register_experiment("fig8a")
def run_gpt2(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Figure 8(a): GPT-2."""
    return _run_model("gpt2-345m", "fig8a", quick=quick, ctx=ctx)


@register_experiment("fig8b")
def run_llama(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Figure 8(b): Llama2-7B."""
    return _run_model("llama2-7b", "fig8b", quick=quick, ctx=ctx)


@register_experiment("fig8c")
def run_moe(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Figure 8(c): Qwen1.5-MoE-A2.7B."""
    return _run_model("qwen1.5-moe-a2.7b", "fig8c", quick=quick, ctx=ctx)


@register_experiment("fig8_gmlake_fraglimit")
def run_gmlake_fraglimit(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """The MoE GMLake ``fragLimit`` study described alongside Figure 8.

    Tuning GMLake's stitching threshold from 512 MiB down to 64 MiB improves
    its memory efficiency on MoE training, but the extra virtual-memory
    operations (the paper measures up to 1500 per iteration at ~30 ms each)
    destroy training throughput.
    """
    from repro.allocators.caching import CachingAllocatorConfig
    from repro.allocators.gmlake import GMLakeAllocator, GMLakeConfig
    from repro.gpu.device import Device, GIB
    from repro.simulator.replay import replay_trace

    workload = A800_WORKLOADS["qwen1.5-moe-a2.7b"]
    config = workload.preset("R" if quick else "Naive")
    trace = ctx.trace(config)
    rows = []
    for frag_limit_mib in (512, 256, 64):
        device = Device(name="A800-80GB", capacity=80 * GIB)
        allocator = GMLakeAllocator(
            device,
            GMLakeConfig(frag_limit=frag_limit_mib * MIB, label=f"gmlake-{frag_limit_mib}MB"),
        )
        result = replay_trace(trace, allocator)
        rows.append(
            {
                "frag_limit_mib": frag_limit_mib,
                "memory_efficiency_pct": round(100 * result.memory_efficiency, 1),
                "vmm_ops_per_iter": result.allocator_stats["vmm_ops"],
                "vmm_overhead_seconds": round(result.overhead_seconds, 2),
            }
        )
    return ExperimentResult(
        experiment_id="fig8_gmlake_fraglimit",
        title="GMLake fragLimit trade-off on Qwen1.5-MoE",
        rows=rows,
        notes="Smaller fragLimit improves efficiency but multiplies VMM operations (§9.2).",
    )
