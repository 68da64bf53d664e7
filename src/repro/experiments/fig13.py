"""Figure 13: performance breakdown of STAlloc's static and dynamic allocators.

Training Qwen1.5-MoE-A2.7B under every optimization preset, three allocators
are compared: the vanilla caching allocator, STAlloc with the dynamic-reuse
path disabled (static plan only, dynamic requests always fall back), and the
full STAlloc.  The gap between the last two quantifies how much reusing idle
static-pool space for dynamic requests contributes (§9.4).
"""

from __future__ import annotations

from repro.experiments.common import (
    A800_WORKLOADS,
    ExperimentResult,
    PRESETS,
    register_experiment,
    run_lineups,
)
from repro.simulator.execution import ExecutionContext
from repro.simulator.runner import STALLOC, STALLOC_NO_REUSE

BREAKDOWN_LINEUP = ["torch2.3", STALLOC_NO_REUSE, STALLOC]
LABELS = {
    "torch2.3": "Caching Allocator",
    STALLOC_NO_REUSE: "STAlloc w/o reuse",
    STALLOC: "STAlloc",
}


@register_experiment("fig13")
def run(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Memory efficiency of the breakdown variants on the MoE model."""
    workload = A800_WORKLOADS["qwen1.5-moe-a2.7b"]
    presets = ["Naive", "R"] if quick else PRESETS
    configs = {preset: workload.preset(preset) for preset in presets}
    jobs = run_lineups(configs, BREAKDOWN_LINEUP, device_name=workload.device_name, ctx=ctx)
    rows = []
    for (preset, allocator), job in jobs.items():
        run_ = job.class_runs[0]
        rows.append(
            {
                "config": preset,
                "allocator": LABELS[allocator],
                "memory_efficiency_pct": round(100 * run_.memory_efficiency, 1),
                "reserved_gib": round(run_.peak_reserved_gib, 2),
                "fallback_gib": round(
                    run_.allocator_stats.get("fallback_peak_reserved", 0) / 2**30, 2
                ),
            }
        )
    return ExperimentResult(
        experiment_id="fig13",
        title="STAlloc performance breakdown on Qwen1.5-MoE (static vs dynamic allocator)",
        rows=rows,
        notes=(
            "Paper: the static plan alone captures ~91% of the fragmentation reduction; "
            "dynamic reuse removes a further share of the fallback allocations (§9.4)."
        ),
    )
