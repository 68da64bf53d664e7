"""Per-iteration throughput: the closed-form cost inputs of the timeline.

The paper's throughput results come from two effects:

1. the *configuration* chosen (pipeline schedule, tensor-parallel degree,
   recomputation, offloading) -- which is exactly what fragmentation forces
   developers to change when a high-throughput configuration OOMs;
2. the *allocator's own runtime overhead* (driver calls, virtual-memory
   operations) added to every iteration.

Both are priced by one model, the discrete-event simulator in
:mod:`repro.timeline`, which walks every rank's schedule with the allocator
overhead injected into its phases; its
:class:`~repro.timeline.simulator.TimelineResult` is a job's throughput (TFLOPS
per GPU, tokens per second and the other row columns).
:class:`ThroughputModel` holds the closed-form cost inputs that simulator
calibrates its phase durations against -- model FLOPs per iteration and the
recompute / parallelism multipliers -- and that
:func:`repro.search.bounds.time_floor_seconds` prices its admissible floor
from.  Absolute TFLOPS numbers are indicative; what the reproduction preserves
is the ordering and rough magnitude of the differences between configurations
and allocators.
"""

from __future__ import annotations

import math

from repro.workloads.training import TrainingConfig


class ThroughputModel:
    """Closed-form cost inputs of one training configuration's step time."""

    #: Extra compute fraction from full activation recomputation (~1 forward).
    RECOMPUTE_OVERHEAD = 1.0 / 3.0
    #: Per-doubling penalty of tensor-parallel communication.
    TP_PENALTY_PER_DOUBLING = 0.055
    #: Multiplier applied when activations are offloaded to host memory.
    OFFLOAD_PENALTY = 1.30
    #: Multiplier for the distributed optimizer's extra communication.
    ZERO_PENALTY = 1.02

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
    # Cost multipliers
    # ------------------------------------------------------------------ #
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
