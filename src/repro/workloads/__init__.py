"""LLM training workload models and allocation-trace generation.

The paper evaluates STAlloc on traces produced by Megatron-LM / Colossal-AI
training real models on real GPUs.  The allocator, however, only ever sees the
stream of ``malloc``/``free`` requests; this package generates that stream
analytically from a model configuration, a parallelism configuration and the
chosen training optimizations, reproducing the spatial regularity (a few dozen
distinct sizes), temporal regularity (persistent / scoped / transient
lifespans) and the perturbations introduced by virtual pipelining,
recomputation, offloading, ZeRO and MoE routing.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "model_config": ["ModelConfig"],
        "models": ["MODEL_REGISTRY", "get_model"],
        "moe": ["ExpertRouter"],
        "parallelism": ["ParallelismConfig", "balanced_split", "normalize_rank", "rank_label"],
        "schedule": ["PhaseSpec", "build_schedule"],
        "trace": ["Trace", "TraceMetadata"],
        "tracegen": ["TraceGenerator"],
        "training": ["OPTIMIZATION_PRESETS", "TrainingConfig", "preset_config"],
    },
)
