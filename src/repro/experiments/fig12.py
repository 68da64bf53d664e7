"""Figure 12: end-to-end training throughput overhead of the allocators.

For the three §9.2 models trained with recomputation, the per-iteration
allocator overhead observed during replay (driver calls, virtual-memory
operations) is fed into the analytical throughput model and normalized against
the vanilla caching allocator: GMLake against PyTorch 2.0, expandable segments
and STAlloc against PyTorch 2.3 (matching the paper's normalization).
"""

from __future__ import annotations

from repro.experiments.common import A800_WORKLOADS, ExperimentResult, register_experiment
from repro.simulator.execution import ExecutionContext
from repro.simulator.runner import run_workload_suite
from repro.gpu.specs import GPU_SPECS
from repro.simulator.throughput import ThroughputModel

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
    model_keys = ["gpt2-345m"] if quick else list(A800_WORKLOADS)
    gpu = GPU_SPECS["A800-80GB"]
    model = ThroughputModel(gpu)
    rows = []
    for model_key in model_keys:
        workload = A800_WORKLOADS[model_key]
        config = workload.preset("R")
        runs = run_workload_suite(config, LINEUP, device_name=workload.device_name, ctx=ctx)
        tflops = {
            name: model.tflops(config, allocator_overhead_seconds=run_.replay.overhead_seconds)
            for name, run_ in runs.items()
        }
        for name in LINEUP:
            reference = tflops[NORMALIZE_AGAINST[name]]
            normalized = 100.0 * tflops[name] / reference if reference else 0.0
            rows.append(
                {
                    "model": workload.model_name,
                    "allocator": name,
                    "tflops_per_gpu": round(tflops[name], 1),
                    "normalized_throughput_pct": round(normalized, 2),
                    "allocator_overhead_s": round(runs[name].replay.overhead_seconds, 3),
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
