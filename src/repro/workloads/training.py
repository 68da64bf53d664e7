"""Training-run configuration and the paper's optimization presets.

A :class:`TrainingConfig` bundles the model, the parallelism layout and the
memory-relevant training options (micro-batch size, recomputation, activation
offloading, ZeRO stage, training framework).  The named presets match the
x-axis of Figure 8: ``Naive``/``R``/``V``/``VR``/``ZR``/``ZOR``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.domain import check_fields
from repro.workloads.model_config import ModelConfig
from repro.workloads.parallelism import ParallelismConfig

#: The workload classes a config can describe (see ``workload_kind``).
WORKLOAD_KINDS = ("training", "inference", "generation")


@dataclass(frozen=True)
class TrainingConfig:
    """Everything that determines one rank's allocation behaviour."""

    model: ModelConfig
    parallelism: ParallelismConfig = field(default_factory=ParallelismConfig)
    # Field metadata declares a knob once (see ParallelismConfig).
    micro_batch_size: int = field(default=1, metadata={
        "label": "mbs", "flag": "--micro-batch-size", "min": 1,
        "help": "sequences per micro-batch (default: %(default)s)",
    })
    num_microbatches: int = field(default=8, metadata={
        "label": "m", "flag": "--microbatches", "min": 1,
        "help": "micro-batches per iteration (default: %(default)s)",
    })
    #: Tokens per sequence; ``None`` takes the model's.
    seq_length: int | None = field(default=None, metadata={"min": 1})
    recompute: bool = False
    offload_activations: bool = False
    zero_stage: int = field(default=0, metadata={"label": "zero", "min": 0, "max": 3})
    framework: str = field(default="megatron", metadata={"choices": ("megatron", "colossalai")})
    param_dtype_bytes: int = field(default=2, metadata={"min": 1})
    grad_dtype_bytes: int = field(default=4, metadata={"min": 1})
    optimizer_bytes_per_param: int = field(default=12, metadata={"min": 0})
    #: MoE router skew in [0, 1]: 0 routes tokens in an exact balanced split
    #: (every expert-parallel rank sees the same load), larger values mix in a
    #: random per-expert preference so EP ranks diverge at runtime.  Ignored
    #: for dense models.
    moe_imbalance: float = field(default=0.3, metadata={"label": "imb", "min": 0, "max": 1})
    #: Scale of the expert-parallel all-to-all communication transients: the
    #: dispatch (forward) and combine (backward) send/recv buffers are sized
    #: ``moe_comm_factor * routed_tokens * hidden_size`` activation bytes and
    #: live across the expert FFN of their layer.  0 (the default) disables
    #: the transients entirely -- the event stream is byte-identical to the
    #: same config's comm-free trace (the golden-fixture baseline); 1 models
    #: unfused all-to-all staging buffers holding one full copy of the routed
    #: activations per direction.  Ignored for dense models.
    moe_comm_factor: float = field(default=0.0, metadata={
        "label": "comm", "flag": "--comm-factor", "min": 0,
        "help": "MoE all-to-all comm factor (default: 0, comm-free)",
    })
    #: Fraction of each all-to-all collective hidden under the expert compute
    #: that follows it, in [0, 1].  Priced inside the timeline simulator (the
    #: expert FFN starts early by ``min(factor * a2a, expert)`` seconds), not
    #: subtracted after the fact, so ``comm_seconds`` and stall events stay
    #: honest; 0 (the default) serialises communication and compute exactly
    #: like the pre-overlap simulator.  Ignored for dense models.
    comm_overlap_factor: float = field(default=0.0, metadata={
        "label": "ovl", "flag": "--overlap", "min": 0, "max": 1,
        "help": "fraction of each all-to-all hidden under expert compute, in [0, 1] "
        "(default: 0, fully serialised)",
    })
    #: Workload class: ``"training"`` (the default, one forward + backward +
    #: optimizer iteration), ``"inference"`` (forward-only pipeline, no
    #: gradients or optimizer state), or ``"generation"`` (one prefill pass
    #: followed by ``decode_steps`` autoregressive decode passes per
    #: micro-batch, with per-layer KV caches growing every step).
    workload_kind: str = field(default="training", metadata={
        "label": "kind", "flag": "--workload", "choices": WORKLOAD_KINDS,
        "help": "workload kind to simulate (default: %(default)s)",
    })
    #: Decode passes per micro-batch for generation workloads.  Each step
    #: appends one token per sequence to the cached context.  0 with
    #: ``workload_kind="generation"`` degenerates to prefill-only (the trace
    #: is event-identical to the inference workload's).
    decode_steps: int = field(default=0, metadata={
        "label": "dec", "flag": "--decode-steps", "min": 0,
        "help": "autoregressive decode passes per micro-batch (generation workloads only; "
        "default: 0)",
    })
    #: Cap on generated tokens per sequence: the KV cache stops growing once
    #: the context reaches ``sequence_length + max_new_tokens`` (decode steps
    #: beyond the cap still run, over the capped context).  0 means no cap.
    max_new_tokens: int = field(default=0, metadata={
        "label": "tok", "flag": "--max-new-tokens", "min": 0,
        "help": "cap on generated tokens per sequence -- the KV cache stops growing at the "
        "cap (generation workloads only; default: 0, no cap)",
    })
    label: str = ""

    def __post_init__(self) -> None:
        check_fields(self)
        if self.workload_kind != "generation" and (self.decode_steps or self.max_new_tokens):
            raise ValueError(
                "decode_steps/max_new_tokens only apply to workload_kind='generation'"
            )
        if self.workload_kind != "training" and (
            self.recompute or self.offload_activations or self.zero_stage
        ):
            raise ValueError(
                "recompute/offload_activations/zero_stage are training-only "
                f"options (workload_kind={self.workload_kind!r})"
            )

    @property
    def sequence_length(self) -> int:
        return self.seq_length if self.seq_length is not None else self.model.seq_length

    @property
    def tokens_per_microbatch(self) -> int:
        return self.micro_batch_size * self.sequence_length

    @property
    def is_training(self) -> bool:
        return self.workload_kind == "training"

    @property
    def effective_new_tokens(self) -> int:
        """Tokens per sequence the KV cache actually grows by over all decode
        steps: ``decode_steps``, clamped by ``max_new_tokens`` when set."""
        if self.max_new_tokens:
            return min(self.decode_steps, self.max_new_tokens)
        return self.decode_steps

    def context_tokens_at(self, step: int) -> int:
        """Per-sequence context length (prompt + generated) after decode
        ``step`` (step 0 is prefill; growth stops at the ``max_new_tokens``
        cap while later decode steps still run over the capped context)."""
        grown = min(step, self.max_new_tokens) if self.max_new_tokens else step
        return self.sequence_length + grown

    @property
    def tokens_per_iteration(self) -> int:
        """Tokens processed per iteration across the whole data-parallel group.

        For generation workloads the generated tokens count too: each decode
        step processes one new token per sequence of every micro-batch.
        """
        tokens = self.tokens_per_microbatch * self.num_microbatches
        if self.workload_kind == "generation":
            tokens += self.micro_batch_size * self.effective_new_tokens * self.num_microbatches
        return tokens * self.parallelism.data_parallel

    @property
    def uses_distributed_optimizer(self) -> bool:
        return self.zero_stage >= 1

    @property
    def expert_asymmetry(self) -> bool:
        """Whether expert-parallel ranks of this job differ in memory behaviour.

        True exactly when runtime token routing can skew per-rank expert loads:
        an MoE model, more than one expert-parallel rank, and a non-zero router
        imbalance.  At ``moe_imbalance == 0`` the router's balanced split gives
        every EP rank the same load, so EP peers collapse back into one
        memory-equivalence class (the pre-EP-awareness behaviour).
        """
        return (
            self.model.is_moe
            and self.parallelism.expert_parallel > 1
            and self.moe_imbalance > 0.0
        )

    def describe(self) -> str:
        """Readable one-line description used in experiment tables."""
        bits = [
            self.model.name,
            self.parallelism.describe(),
            f"mbs={self.micro_batch_size}",
            f"m={self.num_microbatches}",
        ]
        if self.recompute:
            bits.append("recompute")
        if self.offload_activations:
            bits.append("offload")
        if self.zero_stage:
            bits.append(f"zero{self.zero_stage}")
        if self.model.is_moe and self.moe_comm_factor:
            bits.append(f"comm={self.moe_comm_factor:g}")
        if self.model.is_moe and self.comm_overlap_factor:
            bits.append(f"ovl={self.comm_overlap_factor:g}")
        if self.workload_kind != "training":
            bits.append(self.workload_kind)
            if self.decode_steps:
                bits.append(f"dec={self.decode_steps}")
            if self.max_new_tokens:
                bits.append(f"tok={self.max_new_tokens}")
        if self.label:
            bits.append(f"[{self.label}]")
        return " ".join(bits)

    def with_(self, **changes) -> "TrainingConfig":
        """Return a modified copy (convenience wrapper around dataclasses.replace)."""
        return replace(self, **changes)


#: The optimization combinations evaluated in Figure 8 / Figure 13.
#: N: no optimization, R: recomputation, V: virtual pipeline, Z: ZeRO
#: (distributed optimizer), O: activation offload.
OPTIMIZATION_PRESETS: dict[str, dict] = {
    "Naive": {},
    "R": {"recompute": True},
    "V": {"virtual_pipeline": True},
    "VR": {"virtual_pipeline": True, "recompute": True},
    "ZR": {"zero_stage": 1, "recompute": True},
    "ZOR": {"zero_stage": 1, "offload_activations": True, "recompute": True},
}


def preset_config(
    model: ModelConfig,
    preset: str,
    *,
    parallelism: ParallelismConfig,
    micro_batch_size: int,
    num_microbatches: int = 8,
    virtual_chunks: int = 2,
    framework: str = "megatron",
) -> TrainingConfig:
    """Build the TrainingConfig for one of the paper's optimization presets.

    ``parallelism`` is the baseline layout; presets containing ``V`` replace it
    with a copy that uses ``virtual_chunks`` virtual-pipeline chunks.
    """
    if preset not in OPTIMIZATION_PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; available: {', '.join(OPTIMIZATION_PRESETS)}"
        )
    options = dict(OPTIMIZATION_PRESETS[preset])
    if options.pop("virtual_pipeline", False):
        parallelism = replace(parallelism, virtual_pipeline_chunks=virtual_chunks)
    return TrainingConfig(
        model=model,
        parallelism=parallelism,
        micro_batch_size=micro_batch_size,
        num_microbatches=num_microbatches,
        framework=framework,
        label=preset,
        **options,
    )


def validate_seed(seed, name: str = "seed") -> None:
    """Reject a seed that is not a non-negative int (a bool is not one).

    The seed is SeedSequence entropy for the MoE router's draws, which is
    defined for non-negative ints only, so a spec must fail on it before
    any point runs, whether or not its model routes.
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"{name} must be a non-negative int, got {seed!r}")
