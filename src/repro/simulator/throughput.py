"""Analytical training-throughput model.

The paper's throughput results come from two effects:

1. the *configuration* chosen (pipeline schedule, tensor-parallel degree,
   recomputation, offloading) -- which is exactly what fragmentation forces
   developers to change when a high-throughput configuration OOMs;
2. the *allocator's own runtime overhead* (driver calls, virtual-memory
   operations) added to every iteration.

This module models both analytically: model FLOPs per iteration, a per-GPU
achievable-FLOPS ceiling, pipeline-bubble and parallelism penalties, plus the
allocator overhead measured during replay.  Absolute TFLOPS numbers are
indicative; what the reproduction preserves is the ordering and rough
magnitude of the differences between configurations and allocators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpu.specs import GPUSpec
from repro.workloads.training import TrainingConfig

#: Accepted timing backends: the discrete-event simulator walking the real
#: per-rank schedules (``"timeline"``, the job-level default) or the legacy
#: closed-form model (``"analytical"``, kept as a fallback and cross-check).
VALID_TIMINGS = ("timeline", "analytical")


def validate_timing(timing: str) -> str:
    """Reject unknown timing backends (shared with sweep-spec validation)."""
    if timing not in VALID_TIMINGS:
        raise ValueError(
            f"timing must be one of {', '.join(VALID_TIMINGS)}, got {timing!r}"
        )
    return timing


@dataclass
class ThroughputEstimate:
    """Per-iteration timing and the derived per-GPU TFLOPS.

    Produced by both timing backends: :class:`ThroughputModel` (closed-form,
    ``source="analytical"``) and the discrete-event simulator in
    :mod:`repro.timeline` (``source="timeline"``), so everything downstream
    (runner aggregation, sweep rows, ``--compare``) consumes one shape.
    """

    iteration_seconds: float
    model_flops_per_iteration: float
    num_gpus: int
    allocator_overhead_seconds: float = 0.0
    tokens_per_iteration: int = 0
    #: Seconds the binding rank spends in expert-parallel all-to-all
    #: collectives (0 for the analytical backend, which has no routed load).
    comm_seconds: float = 0.0
    #: Fraction of the iteration the busiest rank is not computing -- the
    #: closed-form pipeline-bubble fraction for the analytical backend, the
    #: emergent (bubbles + straggler stalls) fraction for the timeline.
    bubble_fraction: float = 0.0
    #: Seconds the binding rank spends in autoregressive decode steps (0 for
    #: training/inference workloads and for the analytical backend, which
    #: folds decode into the closed-form iteration time).
    decode_seconds: float = 0.0
    #: Dense peak TFLOPS of the device the estimate was made for (0 when
    #: unknown; enables the :attr:`mfu` property).
    peak_tflops: float = 0.0
    #: Which timing backend produced this estimate.
    source: str = "analytical"

    @property
    def total_seconds(self) -> float:
        """Wall-clock of one iteration including allocator overhead."""
        return self.iteration_seconds + self.allocator_overhead_seconds

    @property
    def tflops_per_gpu(self) -> float:
        """Model-FLOPs throughput per GPU (the number frameworks report)."""
        total_time = self.total_seconds
        if total_time <= 0:
            return 0.0
        return self.model_flops_per_iteration / self.num_gpus / total_time / 1e12

    @property
    def tokens_per_second(self) -> float:
        """Training tokens consumed per second across the whole job."""
        total_time = self.total_seconds
        if total_time <= 0:
            return 0.0
        return self.tokens_per_iteration / total_time

    @property
    def mfu(self) -> float:
        """Model-FLOPs utilisation: achieved TFLOPS over the device peak.

        Derived from :attr:`tflops_per_gpu`, so it charges the allocator
        overhead like every other achieved-throughput number here (always
        exactly ``tflops_per_gpu / peak_tflops``); the overhead-free MFU of
        the simulation alone is :attr:`repro.timeline.TimelineResult.mfu`.
        """
        if self.peak_tflops <= 0:
            return 0.0
        return self.tflops_per_gpu / self.peak_tflops

    def row_columns(self) -> dict:
        """The throughput columns of one result row, in presentation order.

        The single definition consumed by ``WorkloadRun.as_dict``,
        ``JobRun.as_dict`` and the sweep engine's row builder -- adding a
        column here is the whole change (plus its
        ``repro.sweep.compare.METRIC_DIRECTIONS`` entry).  Full precision on
        purpose: rounding is display-only (``repro.sweep.results._fmt``), so
        result diffs compare real values.
        """
        return {
            "tflops_per_gpu": self.tflops_per_gpu,
            "tokens_per_second": self.tokens_per_second,
            "iteration_seconds": self.iteration_seconds,
            "comm_seconds": self.comm_seconds,
            "decode_seconds": self.decode_seconds,
            "bubble_fraction": self.bubble_fraction,
            "mfu": self.mfu,
            "timing": self.source,
        }


class ThroughputModel:
    """Analytical step-time model for one training configuration."""

    #: Extra compute fraction from full activation recomputation (~1 forward).
    RECOMPUTE_OVERHEAD = 1.0 / 3.0
    #: Per-doubling penalty of tensor-parallel communication.
    TP_PENALTY_PER_DOUBLING = 0.055
    #: Multiplier applied when activations are offloaded to host memory.
    OFFLOAD_PENALTY = 1.30
    #: Multiplier for the distributed optimizer's extra communication.
    ZERO_PENALTY = 1.02

    def __init__(self, gpu: GPUSpec):
        self.gpu = gpu

    # ------------------------------------------------------------------ #
    # FLOPs accounting
    # ------------------------------------------------------------------ #
    def model_flops_per_iteration(self, config: TrainingConfig) -> float:
        """Model FLOPs of one optimizer step across the whole job.

        Uses the standard ``6 * active_params * tokens`` estimate plus the
        quadratic attention term, and excludes recomputation (so recompute
        configurations show the expected drop in *reported* TFLOPS).
        """
        model = config.model
        tokens = config.tokens_per_iteration
        dense = 6.0 * model.active_params() * tokens
        attention = (
            12.0
            * model.num_layers
            * model.hidden_size
            * config.sequence_length
            * tokens
        )
        return dense + attention

    def workload_flops_fraction(self, config: TrainingConfig) -> float:
        """Fraction of the train-step FLOPs this workload actually executes.

        :meth:`model_flops_per_iteration` counts a full forward+backward pass
        (the standard ``6 * params * tokens``); forward-only inference and
        generation workloads run just the forward third of it.  Training is
        exactly 1.0, so existing estimates are bit-identical.
        """
        return 1.0 if config.is_training else 1.0 / 3.0

    # ------------------------------------------------------------------ #
    # Step-time model
    # ------------------------------------------------------------------ #
    def pipeline_bubble_fraction(self, config: TrainingConfig) -> float:
        """Fraction of the iteration the first stage idles in pipeline bubbles."""
        stages = config.parallelism.pipeline_parallel
        if stages <= 1:
            return 0.0
        chunks = config.parallelism.virtual_pipeline_chunks
        microbatches = config.num_microbatches
        return (stages - 1) / (chunks * microbatches + stages - 1)

    def compute_multiplier(self, config: TrainingConfig) -> float:
        """Extra hardware compute relative to model FLOPs (recompute etc.)."""
        multiplier = 1.0
        if config.recompute:
            multiplier += self.RECOMPUTE_OVERHEAD
        return multiplier

    def communication_multiplier(self, config: TrainingConfig) -> float:
        """Slowdown from tensor-parallel / ZeRO / offload communication."""
        multiplier = 1.0
        tp = config.parallelism.tensor_parallel
        if tp > 1:
            multiplier *= 1.0 + self.TP_PENALTY_PER_DOUBLING * math.log2(tp)
        if config.uses_distributed_optimizer:
            multiplier *= self.ZERO_PENALTY
        if config.offload_activations:
            multiplier *= self.OFFLOAD_PENALTY
        return multiplier

    def estimate(
        self,
        config: TrainingConfig,
        *,
        allocator_overhead_seconds: float = 0.0,
        num_gpus: int | None = None,
    ) -> ThroughputEstimate:
        """Estimate one iteration's duration and throughput."""
        num_gpus = num_gpus or config.parallelism.num_gpus
        model_flops = self.model_flops_per_iteration(config) * self.workload_flops_fraction(config)
        per_gpu_flops = model_flops / num_gpus
        compute_seconds = (
            per_gpu_flops * self.compute_multiplier(config) / self.gpu.achievable_flops
        )
        bubble = self.pipeline_bubble_fraction(config)
        pipeline_seconds = compute_seconds / max(1e-9, (1.0 - bubble))
        iteration_seconds = pipeline_seconds * self.communication_multiplier(config)
        return ThroughputEstimate(
            iteration_seconds=iteration_seconds,
            model_flops_per_iteration=model_flops,
            num_gpus=num_gpus,
            allocator_overhead_seconds=allocator_overhead_seconds,
            tokens_per_iteration=config.tokens_per_iteration,
            bubble_fraction=bubble,
            peak_tflops=self.gpu.peak_tflops,
            source="analytical",
        )

    def tflops(self, config: TrainingConfig, *, allocator_overhead_seconds: float = 0.0) -> float:
        """Convenience wrapper returning per-GPU model TFLOPS."""
        return self.estimate(
            config, allocator_overhead_seconds=allocator_overhead_seconds
        ).tflops_per_gpu
