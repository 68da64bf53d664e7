"""Figure 2: PyTorch memory efficiency of GPT-2 with N / V / R optimizations.

The motivation figure: training GPT-2 on 8 A800 GPUs with the stock PyTorch
caching allocator, the baseline configuration is ~90% memory-efficient, but
enabling virtual pipelining or recomputation -- techniques that *should* help
-- visibly drops efficiency and wastes reserved memory.
"""

from __future__ import annotations

from repro.experiments.common import (
    A800_WORKLOADS,
    ExperimentResult,
    register_experiment,
    run_lineups,
)
from repro.simulator.execution import ExecutionContext


@register_experiment("fig2")
def run(
    *, allocator: str = "torch2.3", quick: bool = False, ctx: ExecutionContext
) -> ExperimentResult:
    """Memory efficiency of GPT-2 under no optimization, VPP, and recomputation."""
    workload = A800_WORKLOADS["gpt2-345m"]
    presets = {"N (no optimization)": "Naive", "V (virtual pipeline)": "V", "R (recomputation)": "R"}
    if quick:
        presets = {"N (no optimization)": "Naive", "R (recomputation)": "R"}
    configs = {label: workload.preset(preset) for label, preset in presets.items()}
    jobs = run_lineups(configs, [allocator], device_name=workload.device_name, ctx=ctx)
    rows = []
    for (label, _), job in jobs.items():
        run_ = job.class_runs[0]
        rows.append(
            {
                "optimization": label,
                "allocated_gib": round(run_.peak_allocated_gib, 2),
                "reserved_gib": round(run_.peak_reserved_gib, 2),
                "memory_efficiency_pct": round(100 * run_.memory_efficiency, 1),
            }
        )
    return ExperimentResult(
        experiment_id="fig2",
        title=f"GPT-2 memory efficiency under training optimizations ({allocator})",
        rows=rows,
        notes=(
            "Paper: ~90% efficiency with no optimization, ~80% with virtual pipeline, "
            "~60% with recomputation (Figure 2)."
        ),
    )
