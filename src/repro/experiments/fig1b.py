"""Figure 1(b): memory vs throughput of Llama2-7B training configurations.

Each point is one training configuration of Llama2-7B on 8 A800 GPUs (varying
pipeline schedule, recomputation and micro-batch size).  Configurations that
need more memory generally train faster; fragmentation decides whether the
fast configurations actually fit -- several of them only run with STAlloc.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, register_experiment, run_lineups
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.training import preset_config
from repro.simulator.execution import ExecutionContext
from repro.timeline import simulate_timeline

#: (label, preset, micro-batch size) of the plotted configurations.
CONFIG_POINTS = [
    ("1F1B + recompute, mbs=2", "R", 2),
    ("1F1B, mbs=1", "Naive", 1),
    ("1F1B, mbs=2", "Naive", 2),
    ("VPP, mbs=2", "V", 2),
    ("VPP, mbs=4", "V", 4),
    ("1F1B, mbs=4", "Naive", 4),
]


@register_experiment("fig1b")
def run(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Reserved memory and throughput of Llama2-7B configurations, with feasibility."""
    model = get_model("llama2-7b")
    parallelism = ParallelismConfig(tensor_parallel=2, pipeline_parallel=4, data_parallel=1)
    points = CONFIG_POINTS[:3] if quick else CONFIG_POINTS
    configs = {
        label: preset_config(
            model,
            preset,
            parallelism=parallelism,
            micro_batch_size=micro_batch_size,
            num_microbatches=16,
        )
        for label, preset, micro_batch_size in points
    }
    jobs = run_lineups(configs, ["torch2.3", "stalloc"], device_name="A800-80GB", ctx=ctx)
    rows = []
    for label, config in configs.items():
        torch_job, stalloc_job = jobs[label, "torch2.3"], jobs[label, "stalloc"]
        rows.append(
            {
                "config": label,
                # Priced overhead-free: the configuration's own throughput.
                "tflops_per_gpu": round(
                    simulate_timeline(config, gpu="A800-80GB").tflops_per_gpu, 1
                ),
                "torch_reserved_gib": round(torch_job.peak_reserved_gib, 1),
                "stalloc_reserved_gib": round(stalloc_job.peak_reserved_gib, 1),
                "torch_feasible": "yes" if torch_job.success else "OOM",
                "stalloc_feasible": "yes" if stalloc_job.success else "OOM",
            }
        )
    only_with_stalloc = [
        row["config"] for row in rows if row["torch_feasible"] == "OOM" and row["stalloc_feasible"] == "yes"
    ]
    notes = "Higher-throughput configurations need more memory (Figure 1b)."
    if only_with_stalloc:
        notes += " Configurations feasible only with STAlloc: " + ", ".join(only_with_stalloc) + "."
    return ExperimentResult(
        experiment_id="fig1b",
        title="Memory vs throughput of Llama2-7B training configurations (8x A800)",
        rows=rows,
        notes=notes,
    )
