"""Figure 9: scalability across cluster sizes, model sizes and GPU platforms.

* Figure 9(a): Llama2-7B and Qwen1.5-MoE trained with recomputation on the
  AMD MI210 cluster (32 and 64 GPUs) -- PyTorch vs STAlloc.
* Figure 9(b): Qwen2.5-7B/14B/32B/72B on 8-128 NVIDIA H200 GPUs with
  recomputation -- PyTorch 2.6, PyTorch expandable segments, STAlloc.
* Figure 9(c): the same sweep with virtual pipelining instead of
  recomputation.

Because GPU memory pressure is a per-rank phenomenon, each cluster point is
simulated as the most-loaded pipeline rank of that job (growing the cluster by
widening data parallelism does not change per-rank memory; growing the model
changes the per-rank layer/parameter share through TP/PP).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    ExperimentResult,
    efficiency_row,
    register_experiment,
    run_lineups,
)
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.training import preset_config
from repro.simulator.execution import ExecutionContext


@dataclass(frozen=True)
class ScalePoint:
    """One (model, cluster size) point of the H200 scalability sweep."""

    model_name: str
    num_gpus: int
    tensor_parallel: int
    pipeline_parallel: int
    micro_batch_size: int = 1
    num_microbatches: int = 8

    def parallelism(self, *, virtual_chunks: int = 1) -> ParallelismConfig:
        data_parallel = self.num_gpus // (self.tensor_parallel * self.pipeline_parallel)
        return ParallelismConfig(
            tensor_parallel=self.tensor_parallel,
            pipeline_parallel=self.pipeline_parallel,
            data_parallel=max(1, data_parallel),
            virtual_pipeline_chunks=virtual_chunks,
        )


#: The eight x-axis points of Figure 9(b)/(c): each model at two cluster sizes.
H200_SCALE_POINTS: list[ScalePoint] = [
    ScalePoint("qwen2.5-7b", 8, tensor_parallel=2, pipeline_parallel=2, micro_batch_size=2),
    ScalePoint("qwen2.5-7b", 16, tensor_parallel=2, pipeline_parallel=2, micro_batch_size=2),
    ScalePoint("qwen2.5-14b", 16, tensor_parallel=2, pipeline_parallel=2),
    ScalePoint("qwen2.5-14b", 32, tensor_parallel=2, pipeline_parallel=2),
    ScalePoint("qwen2.5-32b", 32, tensor_parallel=4, pipeline_parallel=4),
    ScalePoint("qwen2.5-32b", 64, tensor_parallel=4, pipeline_parallel=4),
    ScalePoint("qwen2.5-72b", 64, tensor_parallel=8, pipeline_parallel=4),
    ScalePoint("qwen2.5-72b", 128, tensor_parallel=8, pipeline_parallel=4),
]

H200_LINEUP = ["torch2.6", "torch_es", "stalloc"]


def _h200_sweep(
    experiment_id: str, *, preset: str, quick: bool, ctx: ExecutionContext
) -> ExperimentResult:
    points = H200_SCALE_POINTS[:4] if quick else H200_SCALE_POINTS
    virtual_chunks = 2 if preset in ("V", "VR") else 1
    configs = {
        f"{point.model_name.replace('qwen2.5-', '')}@{point.num_gpus}GPU": preset_config(
            get_model(point.model_name),
            preset,
            parallelism=point.parallelism(virtual_chunks=virtual_chunks),
            micro_batch_size=point.micro_batch_size,
            num_microbatches=point.num_microbatches,
        )
        for point in points
    }
    jobs = run_lineups(configs, H200_LINEUP, device_name="H200-141GB", ctx=ctx)
    rows = [efficiency_row(*tag, job.class_runs[0]) for tag, job in jobs.items()]
    title = "Qwen2.5 scalability on H200 with " + (
        "recomputation" if preset == "R" else "virtual pipeline"
    )
    return ExperimentResult(experiment_id=experiment_id, title=title, rows=rows)


@register_experiment("fig9a")
def run_amd(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Figure 9(a): AMD MI210 cluster, recomputation, PyTorch vs STAlloc."""
    jobs = [
        (
            "llama2-7b@32GPU",
            preset_config(
                get_model("llama2-7b"),
                "R",
                parallelism=ParallelismConfig(tensor_parallel=2, pipeline_parallel=4, data_parallel=4),
                micro_batch_size=2,
                num_microbatches=8,
            ),
        ),
        (
            "qwen1.5-moe@64GPU",
            preset_config(
                get_model("qwen1.5-moe-a2.7b"),
                "R",
                parallelism=ParallelismConfig(
                    tensor_parallel=1,
                    pipeline_parallel=4,
                    data_parallel=16,
                    expert_parallel=4,
                ),
                micro_batch_size=4,
                num_microbatches=8,
            ),
        ),
    ]
    if quick:
        jobs = jobs[:1]
    runs = run_lineups(dict(jobs), ["torch2.3", "stalloc"], device_name="MI210-64GB", ctx=ctx)
    rows = [
        efficiency_row(label, "torch" if name == "torch2.3" else name, job.class_runs[0])
        for (label, name), job in runs.items()
    ]
    return ExperimentResult(
        experiment_id="fig9a",
        title="Scalability on the AMD MI210 cluster (recomputation)",
        rows=rows,
        notes="Paper: STAlloc stays above 90% efficiency; PyTorch drops below 60-80% (Figure 9a).",
    )


@register_experiment("fig9b")
def run_h200_recompute(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Figure 9(b): H200 scalability with recomputation."""
    return _h200_sweep("fig9b", preset="R", quick=quick, ctx=ctx)


@register_experiment("fig9c")
def run_h200_vpp(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Figure 9(c): H200 scalability with virtual pipeline."""
    return _h200_sweep("fig9c", preset="V", quick=quick, ctx=ctx)
