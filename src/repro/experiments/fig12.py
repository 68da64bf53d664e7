"""Figure 12: end-to-end training throughput overhead of the allocators.

For the three §9.2 models trained with recomputation, the per-iteration
allocator overhead observed during replay (driver calls, virtual-memory
operations) is injected into the timeline simulation's phases -- the same
pricing every sweep and search row gets -- and the throughput is normalized
against the vanilla caching allocator: GMLake against PyTorch 2.0, expandable
segments and STAlloc against PyTorch 2.3 (matching the paper's
normalization).
"""

from __future__ import annotations

from repro.experiments.common import (
    A800_WORKLOADS,
    ExperimentResult,
    register_experiment,
    run_lineups,
)
from repro.simulator.execution import ExecutionContext

LINEUP = ["torch2.0", "gmlake", "torch2.3", "torch_es", "stalloc"]
#: Which baseline each allocator is normalized against (paper's convention).
NORMALIZE_AGAINST = {
    "torch2.0": "torch2.0",
    "gmlake": "torch2.0",
    "torch2.3": "torch2.3",
    "torch_es": "torch2.3",
    "stalloc": "torch2.3",
}


@register_experiment("fig12")
def run(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Normalized training throughput of every allocator on the three models."""
    configs = {
        A800_WORKLOADS[key].model_name: A800_WORKLOADS[key].preset("R")
        for key in (["gpt2-345m"] if quick else A800_WORKLOADS)
    }
    jobs = run_lineups(configs, LINEUP, device_name="A800-80GB", ctx=ctx)
    rows = []
    for (model_name, name), job in jobs.items():
        reference = jobs[model_name, NORMALIZE_AGAINST[name]].tflops
        rows.append(
            {
                "model": model_name,
                "allocator": name,
                "tflops_per_gpu": round(job.tflops, 1),
                "normalized_throughput_pct": round(
                    100.0 * job.tflops / reference if reference else 0.0, 2
                ),
                "allocator_overhead_s": round(job.class_runs[0].replay.overhead_seconds, 3),
            }
        )
    return ExperimentResult(
        experiment_id="fig12",
        title="Normalized training throughput by allocator (recomputation)",
        rows=rows,
        notes=(
            "Paper: no allocator loses meaningful throughput in these settings; STAlloc is within "
            "0.05% of PyTorch 2.3, while virtual-memory based allocators can dip under churny "
            "workloads (Figure 12)."
        ),
    )
