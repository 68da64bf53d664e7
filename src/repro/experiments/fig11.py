"""Figure 11: generality across training frameworks (Colossal-AI).

GPT-2 is trained with Colossal-AI-style tensor offloading plus ZeRO-3 (fully
sharded parameters gathered layer-by-layer) at two batch sizes.  The gathered
parameter buffers and offloaded activations churn through the allocator and
fragment the online baselines; STAlloc plans around them.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    FULL_LINEUP,
    efficiency_row,
    register_experiment,
    run_lineups,
)
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.training import TrainingConfig
from repro.simulator.execution import ExecutionContext


def _colossalai_config(batch_size: int) -> TrainingConfig:
    return TrainingConfig(
        model=get_model("gpt2-345m"),
        parallelism=ParallelismConfig(tensor_parallel=1, pipeline_parallel=1, data_parallel=8),
        micro_batch_size=batch_size,
        num_microbatches=4,
        zero_stage=3,
        offload_activations=True,
        framework="colossalai",
        label=f"colossalai-bs{batch_size}",
    )


@register_experiment("fig11")
def run(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Memory efficiency on Colossal-AI (offload + ZeRO-3) at batch sizes 16 and 128."""
    batch_sizes = [16] if quick else [16, 128]
    lineup = ["torch2.3", "stalloc"] if quick else FULL_LINEUP
    configs = {f"batch={size}": _colossalai_config(size) for size in batch_sizes}
    jobs = run_lineups(configs, lineup, device_name="A800-80GB", ctx=ctx)
    rows = [efficiency_row(*tag, job.class_runs[0]) for tag, job in jobs.items()]
    return ExperimentResult(
        experiment_id="fig11",
        title="Memory efficiency on Colossal-AI (GPT-2, offload + ZeRO-3)",
        rows=rows,
        notes="Paper: STAlloc outperforms every baseline on both batch sizes (Figure 11).",
    )
