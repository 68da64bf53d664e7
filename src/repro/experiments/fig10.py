"""Figure 10: memory efficiency across micro-batch sizes.

Llama2-7B is trained with recomputation while the micro-batch size sweeps
1..64.  Activation sizes scale with the micro-batch size, so online allocators
degrade as blocks get larger and reuse mismatches get costlier, while STAlloc
stays flat; the largest micro-batches OOM for the baselines.
"""

from __future__ import annotations

from repro.experiments.common import (
    A800_WORKLOADS,
    ExperimentResult,
    FULL_LINEUP,
    efficiency_row,
    register_experiment,
    run_lineups,
)
from repro.simulator.execution import ExecutionContext

MICRO_BATCH_SIZES = [1, 2, 4, 8, 16, 32, 64]


@register_experiment("fig10")
def run(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Memory efficiency of Llama2-7B + recomputation over micro-batch sizes."""
    workload = A800_WORKLOADS["llama2-7b"]
    sizes = [1, 4, 16] if quick else MICRO_BATCH_SIZES
    lineup = ["torch2.3", "stalloc"] if quick else FULL_LINEUP
    configs = {f"mbs={size}": workload.preset("R", micro_batch_size=size) for size in sizes}
    jobs = run_lineups(configs, lineup, device_name=workload.device_name, ctx=ctx)
    rows = [efficiency_row(*tag, job.class_runs[0]) for tag, job in jobs.items()]
    return ExperimentResult(
        experiment_id="fig10",
        title="Memory efficiency vs micro-batch size (Llama2-7B, recomputation)",
        rows=rows,
        notes=(
            "Paper: STAlloc stays ~99% efficient at every micro-batch size while the other "
            "allocators degrade as the micro-batch grows; the largest sizes OOM (Figure 10)."
        ),
    )
