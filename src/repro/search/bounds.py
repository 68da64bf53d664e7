"""Admissible lower bounds that prune search candidates before pricing them.

Two bounds, both *sound* with respect to what the simulator would measure:

* :func:`memory_lower_bound` -- bytes every allocator must hold live
  simultaneously on a rank at the steady-state peak, computed from the
  :class:`~repro.workloads.memory_model.MemoryModel` inventory alone (no trace
  generation).  It undercounts on purpose: boundary activations, logits,
  dynamic expert tensors, communication buffers and transients are all
  excluded, and every jitterable size is taken at the *minimum* jitter factor
  the generator can apply.  Therefore ``bound <= peak_allocated <=
  peak_reserved`` for every allocator, and ``bound > capacity`` proves the
  candidate OOMs everywhere -- the pre-tracegen kill the tentpole asks for.

* :func:`time_floor_seconds` -- the compute-bound step time of the analytical
  model with the pipeline-bubble and straggler terms dropped.  Both timing
  backends charge at least this much (the timeline simulator schedules the
  same per-phase compute costs and can only *add* waiting), so
  :func:`throughput_upper_bound` (tokens per iteration over the floor) is an
  admissible branch-and-bound bound on ``tokens_per_second``.

Soundness of both bounds against the real backends is property-tested in
``tests/test_search.py``.
"""

from __future__ import annotations

from repro.core.events import TensorCategory
from repro.gpu.specs import GPUSpec, get_gpu
from repro.simulator.throughput import ThroughputModel
from repro.workloads.fingerprint import DEFAULT_SIZE_JITTER
from repro.workloads.memory_model import ACT_BYTES, MemoryModel, TensorSpec
from repro.workloads.training import TrainingConfig

#: The smallest factor the generator's size jitter can shrink an
#: activation-like tensor by; the floor prices every jitterable tensor at it.
_MIN_JITTER = min(DEFAULT_SIZE_JITTER)

#: Categories the generator jitters (see ``TraceGenerator._jitter``).
_JITTERED = (
    TensorCategory.ACTIVATION,
    TensorCategory.TEMPORARY,
    TensorCategory.EXPERT_ACTIVATION,
)


def _jitter_floor(spec: TensorSpec) -> int:
    """Smallest size the generator can emit for ``spec`` in a micro-batch."""
    if spec.category not in _JITTERED:
        return spec.size
    # Mirrors TraceGenerator._jitter's rounding exactly, at the minimum factor.
    return max(512, ((int(spec.size * _MIN_JITTER) + 511) // 512) * 512)


def _scaled_chunk_layers(config: TrainingConfig, scale: float) -> int:
    """Layers one virtual-pipeline chunk emits under the ``scale`` knob."""
    full = config.parallelism.layers_per_chunk(config.model.num_layers)
    return max(1, round(full * scale))


def persistent_bytes_floor(
    config: TrainingConfig, *, rank: int = 0, ep_rank: int = 0, scale: float = 1.0
) -> int:
    """Exact persistent (INIT-phase) bytes a rank allocates.

    Replicates ``TraceGenerator._emit_init``: layer-tagged specs beyond the
    scaled layer count are dropped, ZeRO-3 shards WEIGHT specs across the
    data-parallel group, and forward-only workloads (inference/generation)
    skip gradient and optimizer-state tensors entirely.  Persistent tensors
    are never jittered, so this term is exact, not merely a lower bound.
    """
    memory = MemoryModel(config, rank=rank, ep_rank=ep_rank)
    parallelism = config.parallelism
    scale_layers = _scaled_chunk_layers(config, scale) * parallelism.virtual_pipeline_chunks
    full_layers = parallelism.layers_per_rank(config.model.num_layers)
    forward_only = not config.is_training
    total = 0
    for spec in memory.persistent_tensors():
        if forward_only and spec.category in (
            TensorCategory.GRADIENT, TensorCategory.OPTIMIZER_STATE
        ):
            continue
        if spec.tag.startswith("layer"):
            layer_index = int(spec.tag.split(".")[0][len("layer"):])
            if layer_index >= scale_layers and full_layers > scale_layers:
                continue
        if config.zero_stage >= 3 and spec.category is TensorCategory.WEIGHT:
            total += max(512, spec.size // parallelism.data_parallel)
        else:
            total += spec.size
    return total


def scoped_layer_bytes_floor(
    config: TrainingConfig, *, rank: int = 0, ep_rank: int = 0
) -> int:
    """Minimum bytes one layer of one in-flight micro-batch keeps saved.

    Under recomputation or offloading only the layer-input checkpoint
    survives the forward pass; otherwise the dense saved activations (minus
    the expert-replaced ``mlp*`` tensors for MoE models) plus the
    routing-independent MoE tensors do.  Dynamic expert tensors and
    all-to-all buffers are excluded -- they can transiently be freed --
    keeping the bound admissible.
    """
    memory = MemoryModel(config, rank=rank, ep_rank=ep_rank)
    if config.recompute or config.offload_activations:
        specs = memory.recompute_checkpoint_tensors()
    else:
        specs = memory.saved_activation_tensors()
        if config.model.is_moe:
            specs = [spec for spec in specs if not spec.tag.startswith("mlp")]
            specs = specs + memory.moe_static_tensors()
    return sum(_jitter_floor(spec) for spec in specs)


def kv_cache_bytes_floor(config: TrainingConfig, *, scale: float = 1.0) -> int:
    """Minimum concurrently-live KV-cache bytes of a generation workload.

    Decode runs step-major, so at the end of the next-to-last decode step
    every (micro-batch, chunk) unit still holds all its per-layer caches at
    the step's context length; during the final step the first unit grows to
    the full context before anything is freed.  The floor prices exactly that
    guaranteed-live set -- all units at ``context_tokens_at(decode_steps - 1)``
    plus one unit's growth to the full context -- and KV sizes are never
    jittered, so ``floor <= kv_peak <= peak_allocated`` for every trace.
    Zero for non-generation workloads and for prefill-only generation
    (``decode_steps == 0``, which allocates no caches at all).
    """
    if config.workload_kind != "generation" or config.decode_steps == 0:
        return 0
    memory = MemoryModel(config)
    layers = _scaled_chunk_layers(config, scale)
    units = config.num_microbatches * config.parallelism.virtual_pipeline_chunks
    last = memory.kv_cache_tensor(0, config.context_tokens_at(config.decode_steps)).size
    prior = memory.kv_cache_tensor(
        0, config.context_tokens_at(config.decode_steps - 1)
    ).size
    return (units - 1) * layers * prior + layers * last


def memory_lower_bound(
    config: TrainingConfig, *, rank: int = 0, ep_rank: int = 0, scale: float = 1.0
) -> int:
    """Bytes every allocator must hold live at once on ``rank``.

    ``persistent + in_flight_microbatch_chunks * layers_per_chunk *
    per_layer_floor``: at the 1F1B / interleaved steady state the schedule
    keeps ``in_flight_microbatches`` forward chunks un-backwarded, and each
    holds its saved activations for every layer of the chunk.  Everything
    else a real trace allocates on top (boundary buffers, logits, experts,
    comm, transients) only raises the true peak.

    Forward-only workloads retain nothing across phases -- the generator
    frees every scoped and boundary activation at the end of each forward --
    so the in-flight activation term is dropped; generation workloads add
    the KV-cache floor instead (see :func:`kv_cache_bytes_floor`), the
    dynamic allocation a static planner must still provision for.
    """
    persistent = persistent_bytes_floor(config, rank=rank, ep_rank=ep_rank, scale=scale)
    if not config.is_training:
        return persistent + kv_cache_bytes_floor(config, scale=scale)
    in_flight = config.parallelism.in_flight_microbatches(rank, config.num_microbatches)
    per_layer = scoped_layer_bytes_floor(config, rank=rank, ep_rank=ep_rank)
    return persistent + in_flight * _scaled_chunk_layers(config, scale) * per_layer


def _comm_floor_seconds(
    config: TrainingConfig, gpu: GPUSpec, *, scale: float = 1.0
) -> float:
    """Minimum all-to-all seconds the timeline backend charges one rank.

    The timeline emits one dispatch/combine collective per MoE layer
    execution -- ``2 * num_microbatches * chunks * scaled_layers`` per rank --
    and each collective's duration is at least the *balanced* routed bytes
    (``tokens * top_k / ep``; the slowest participant can only carry more)
    over the **fastest** tier (a tiered fabric's per-rank mix of two rates is
    never faster than its best rate).  With a ``comm_overlap_factor`` of
    ``w``, at most ``w`` of each collective hides under expert compute, so at
    least ``1 - w`` of it extends the critical path.  Every inequality
    under-counts, keeping the floor admissible.
    """
    model = config.model
    factor = config.moe_comm_factor
    if not model.is_moe or factor <= 0:
        return 0.0
    parallelism = config.parallelism
    balanced_tokens = (
        config.tokens_per_microbatch * model.moe_top_k / parallelism.expert_parallel
    )
    bytes_per_collective = factor * balanced_tokens * model.hidden_size * ACT_BYTES
    seconds_per_collective = bytes_per_collective / (
        gpu.fastest_tier_gbytes_per_sec * 1e9
    )
    chunks = parallelism.virtual_pipeline_chunks
    collectives = 2 * config.num_microbatches * chunks * _scaled_chunk_layers(config, scale)
    return (1.0 - config.comm_overlap_factor) * collectives * seconds_per_collective


def time_floor_seconds(
    config: TrainingConfig,
    gpu: GPUSpec | str,
    *,
    timing: str = "analytical",
    scale: float = 1.0,
) -> float:
    """Seconds one iteration takes at best, for the given timing backend.

    The analytical model's compute term with its compute/communication
    multipliers but *without* the pipeline-bubble divisor or allocator
    overhead; the timeline backend schedules the same per-phase costs and can
    only add stalls on top.  For ``timing="timeline"`` the floor additionally
    charges the backend's explicit all-to-all collectives at the fastest
    fabric tier (see :func:`_comm_floor_seconds`) -- the analytical backend
    prices communication through its multiplier instead, so the extra term
    must stay off its floor to remain admissible.  The compute term is
    independent of ``scale``; the collective count is not (the timeline emits
    one per *scaled* layer execution).
    """
    gpu = get_gpu(gpu)
    model = ThroughputModel(gpu)
    per_gpu_flops = (
        model.model_flops_per_iteration(config)
        * model.workload_flops_fraction(config)
        / config.parallelism.num_gpus
    )
    floor = (
        per_gpu_flops
        * model.compute_multiplier(config)
        * model.communication_multiplier(config)
        / gpu.achievable_flops
    )
    if timing == "timeline":
        floor += _comm_floor_seconds(config, gpu, scale=scale)
    return floor


def throughput_upper_bound(
    config: TrainingConfig,
    gpu: GPUSpec | str,
    *,
    timing: str = "analytical",
    scale: float = 1.0,
) -> float:
    """Admissible upper bound on ``tokens_per_second`` for the candidate.

    Infinite (bound disabled, the candidate is never pruned on time) when the
    device is unknown or the model somehow prices to a zero floor -- an
    unusable bound must fail open, not kill candidates.
    """
    try:
        floor = time_floor_seconds(config, gpu, timing=timing, scale=scale)
    except ValueError:
        return float("inf")
    if floor <= 0:
        return float("inf")
    return config.tokens_per_iteration / floor
