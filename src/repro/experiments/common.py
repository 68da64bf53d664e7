"""Shared experiment infrastructure: result container, registry, workloads.

The testbed workload definitions (which parallelism layout each model uses on
the 8-GPU A800 node, which micro-batch sizes, etc.) live here so that every
figure uses consistent configurations, exactly as the paper reuses the same
setups across its evaluation subsections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.simulator.execution import ExecutionContext
from repro.simulator.runner import JobRun, run_jobs
from repro.sweep.results import column_union, table_lines
from repro.sweep.spec import SweepPoint
from repro.workloads.model_config import ModelConfig
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.training import TrainingConfig, preset_config

#: The Figure 8 allocator line-up, in presentation order.
BASELINE_LINEUP = ["torch2.0", "gmlake", "torch2.3", "torch_es"]
FULL_LINEUP = BASELINE_LINEUP + ["stalloc"]

#: Optimization presets on the x-axis of Figures 8 and 13.
PRESETS = ["Naive", "R", "V", "VR", "ZR", "ZOR"]


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure plus free-form notes."""

    experiment_id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: str = ""

    def to_text(self) -> str:
        """Column-aligned plain-text rendering (what the CLI prints)."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines += table_lines(self.rows, column_union(self.rows))
        if self.notes:
            lines.append("")
            lines.append(self.notes)
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Experiment registry
# ---------------------------------------------------------------------- #
_EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {}


def register_experiment(experiment_id: str):
    """Decorator registering an experiment function under a paper artifact id."""

    def decorator(func: Callable[..., ExperimentResult]):
        if experiment_id in _EXPERIMENTS:
            raise ValueError(f"experiment {experiment_id!r} registered twice")
        _EXPERIMENTS[experiment_id] = func
        func.experiment_id = experiment_id
        return func

    return decorator


def available_experiments() -> list[str]:
    return sorted(_EXPERIMENTS)


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    try:
        return _EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(available_experiments())}"
        ) from None


def run_experiment(
    experiment_id: str, *, ctx: ExecutionContext | None = None, **kwargs
) -> ExperimentResult:
    """Run one experiment, handing it the execution context its workloads use.

    ``ctx`` carries the worker count and the persistent trace/plan cache (the
    CLI builds it from ``--jobs`` / ``--cache-dir``); the default is serial
    with no disk cache.
    """
    ctx = ctx if ctx is not None else ExecutionContext()
    return get_experiment(experiment_id)(ctx=ctx, **kwargs)


# ---------------------------------------------------------------------- #
# Testbed workload definitions
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TestbedWorkload:
    """How one model is trained on the 8-GPU A800 testbed."""

    model_name: str
    parallelism: ParallelismConfig
    micro_batch_size: int
    num_microbatches: int
    device_name: str = "A800-80GB"

    @property
    def model(self) -> ModelConfig:
        return get_model(self.model_name)

    def preset(self, preset_name: str, *, micro_batch_size: int | None = None) -> TrainingConfig:
        return preset_config(
            self.model,
            preset_name,
            parallelism=self.parallelism,
            micro_batch_size=micro_batch_size or self.micro_batch_size,
            num_microbatches=self.num_microbatches,
        )


#: The three models of §9.2 on the A800 node (micro-batch sizes chosen so the
#: largest preset fits the simulated 80 GB device, mirroring the paper's
#: "maximum feasible micro-batch size" policy).
A800_WORKLOADS: dict[str, TestbedWorkload] = {
    "gpt2-345m": TestbedWorkload(
        model_name="gpt2-345m",
        parallelism=ParallelismConfig(tensor_parallel=1, pipeline_parallel=4, data_parallel=2),
        micro_batch_size=32,
        num_microbatches=16,
    ),
    "llama2-7b": TestbedWorkload(
        model_name="llama2-7b",
        parallelism=ParallelismConfig(tensor_parallel=2, pipeline_parallel=4, data_parallel=1),
        micro_batch_size=2,
        num_microbatches=16,
    ),
    "qwen1.5-moe-a2.7b": TestbedWorkload(
        model_name="qwen1.5-moe-a2.7b",
        parallelism=ParallelismConfig(
            tensor_parallel=1, pipeline_parallel=4, data_parallel=2, expert_parallel=2
        ),
        micro_batch_size=4,
        num_microbatches=8,
    ),
}


def run_lineups(
    configs: dict,
    allocators: list[str],
    *,
    ctx: ExecutionContext | None = None,
    ranks=None,
    **options,
) -> dict[tuple, JobRun]:
    """Every (configuration, allocator) job of an experiment in one :func:`run_jobs` call.

    ``configs`` maps a row label to its configuration; ``options`` are the
    :meth:`SweepPoint.build` keywords all jobs share (``device_name``,
    ``scale``, ...).
    By default a job is rank (0, 0) only (``job.class_runs[0]``); every job is
    priced by the timeline simulator.  Each rank's trace is fetched once for every
    allocator that reads it, and ``ctx``'s workers share the whole
    experiment.  Returns ``{(label, allocator): JobRun}`` in label-major order.
    """
    jobs = [
        ((label, allocator), SweepPoint.build(config, allocator, ranks=ranks, **options))
        for label, config in configs.items()
        for allocator in allocators
    ]
    done = {tag: job for tag, job, _ in run_jobs(jobs, ctx=ctx)}
    return {tag: done[tag] for tag, _ in jobs}


def efficiency_row(config_label: str, allocator: str, run) -> dict:
    """Standard row format shared by the memory-efficiency figures."""
    return {
        "config": config_label,
        "allocator": allocator,
        "memory_efficiency_pct": round(100 * run.memory_efficiency, 1),
        "fragmentation_pct": round(100 * run.fragmentation_ratio, 1),
        "allocated_gib": round(run.peak_allocated_gib, 2),
        "reserved_gib": round(run.peak_reserved_gib, 2),
        "status": "ok" if run.success else "OOM",
    }
