"""The closed-form step-time model, kept as a test oracle.

The package prices every iteration with the timeline simulator.  With nothing
dynamic happening (a dense job, or a balanced comm-free MoE job) its emergent
schedule must land on the classical closed form: the compute time of
``model_flops / num_gpus`` at the device's achievable FLOPS, stretched by the
recompute and parallelism multipliers and divided by ``1 - bubble`` for the
1F1B/interleaved pipeline bubble ``(p - 1) / (chunks * m + p - 1)``.
:func:`estimate` is that formula, written out independently of the
simulator's event loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.specs import GPUSpec
from repro.simulator.throughput import ThroughputModel
from repro.workloads.training import TrainingConfig


@dataclass(frozen=True)
class ClosedForm:
    """The closed form's iteration: what the differential tests compare."""

    #: Step time without the allocator's overhead.
    iteration_seconds: float
    bubble_fraction: float
    #: Per-GPU TFLOPS with the allocator's overhead added to the step.
    tflops_per_gpu: float


def pipeline_bubble_fraction(config: TrainingConfig) -> float:
    """Fraction of the iteration the first stage idles in pipeline bubbles."""
    stages = config.parallelism.pipeline_parallel
    if stages <= 1:
        return 0.0
    chunks = config.parallelism.virtual_pipeline_chunks
    microbatches = config.num_microbatches
    return (stages - 1) / (chunks * microbatches + stages - 1)


def estimate(
    config: TrainingConfig, gpu: GPUSpec, allocator_overhead_seconds: float = 0.0
) -> ClosedForm:
    """The closed-form estimate of one iteration, plus an allocator's overhead."""
    costs = ThroughputModel()
    num_gpus = config.parallelism.num_gpus
    model_flops = costs.model_flops_per_iteration(config) * costs.workload_flops_fraction(config)
    compute_seconds = (
        model_flops / num_gpus * costs.compute_multiplier(config) / gpu.achievable_flops
    )
    bubble = pipeline_bubble_fraction(config)
    pipeline_seconds = compute_seconds / max(1e-9, (1.0 - bubble))
    iteration_seconds = pipeline_seconds * costs.communication_multiplier(config)
    return ClosedForm(
        iteration_seconds=iteration_seconds,
        bubble_fraction=bubble,
        tflops_per_gpu=(
            model_flops / num_gpus / (iteration_seconds + allocator_overhead_seconds) / 1e12
        ),
    )
