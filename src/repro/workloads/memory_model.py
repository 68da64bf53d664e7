"""Per-rank tensor-size model for transformer training.

Given a :class:`~repro.workloads.training.TrainingConfig`, this module
computes the byte sizes of the tensors one pipeline rank materialises during a
training iteration:

* persistent tensors -- per-layer weight/gradient/optimizer-state chunks plus
  embeddings (allocated once, live for the whole run);
* scoped activation tensors -- produced in a micro-batch's forward pass and
  kept until the matching backward pass;
* transient tensors -- operator workspaces and backward temporaries freed
  within the phase that created them;
* MoE expert tensors -- whose sizes depend on runtime token routing and are
  therefore *dynamic*.

The tensor inventory intentionally mirrors a Megatron-style layer so that the
number of *distinct* sizes per configuration stays small (a few dozen), which
is exactly the spatial regularity STAlloc exploits (Figure 3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.events import TensorCategory
from repro.workloads.parallelism import balanced_split
from repro.workloads.training import TrainingConfig

#: bytes per element for activations (bf16).
ACT_BYTES = 2

#: The activations a routed expert saves, in emission order (its tag suffixes).
EXPERT_ACTIVATIONS = ("input", "up", "act", "out")


@dataclass(frozen=True)
class TensorSpec:
    """One tensor the workload will allocate."""

    tag: str
    size: int
    category: TensorCategory
    saved_for_backward: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"tensor {self.tag!r} has non-positive size {self.size}")


def round512(size: float) -> int:
    """Tensor allocations surface as 512-byte aligned requests in PyTorch."""
    size = int(size)
    return max(512, ((size + 511) // 512) * 512)


class MemoryModel:
    """Computes tensor sizes for one pipeline rank of a training config."""

    def __init__(self, config: TrainingConfig, *, rank: int = 0, ep_rank: int = 0):
        if not 0 <= rank < config.parallelism.pipeline_parallel:
            raise ValueError(
                f"rank must be in [0, {config.parallelism.pipeline_parallel}), got {rank}"
            )
        if not 0 <= ep_rank < config.parallelism.expert_parallel:
            raise ValueError(
                f"ep_rank must be in [0, {config.parallelism.expert_parallel}), got {ep_rank}"
            )
        if (
            config.model.is_moe
            and config.parallelism.expert_parallel > 1
            and config.model.num_experts % config.parallelism.expert_parallel
        ):
            raise ValueError(
                f"num_experts ({config.model.num_experts}) must be divisible by "
                f"expert_parallel ({config.parallelism.expert_parallel}) so the "
                f"expert-parallel slices cover every expert exactly once"
            )
        self.config = config
        self.model = config.model
        self.parallelism = config.parallelism
        self.rank = rank
        self.ep_rank = ep_rank

    @property
    def is_first_stage(self) -> bool:
        return self.rank == 0

    @property
    def is_last_stage(self) -> bool:
        return self.rank == self.parallelism.pipeline_parallel - 1

    # ------------------------------------------------------------------ #
    # Shorthand
    # ------------------------------------------------------------------ #
    @property
    def tp(self) -> int:
        return self.parallelism.tensor_parallel

    @property
    def dp(self) -> int:
        return self.parallelism.data_parallel

    @property
    def ep(self) -> int:
        return self.parallelism.expert_parallel

    @property
    def tokens(self) -> int:
        """Tokens in one micro-batch on this rank."""
        return self.config.micro_batch_size * self.config.sequence_length

    @property
    def num_local_experts(self) -> int:
        if not self.model.is_moe:
            return 0
        return max(1, self.model.num_experts // self.ep)

    # ------------------------------------------------------------------ #
    # Persistent tensors
    # ------------------------------------------------------------------ #
    def layer_weight_bytes(self) -> int:
        """Parameter bytes of one transformer layer on this rank."""
        attention = self.model.attention_params() / self.tp
        norms = 2 * self.model.hidden_size
        if self.model.is_moe:
            mlp = (
                self.model.hidden_size * self.model.num_experts  # router (replicated)
                + self.num_local_experts * self.model.expert_params()
            )
            if self.model.moe_shared_expert_ffn:
                h, f = self.model.hidden_size, self.model.moe_shared_expert_ffn
                mlp += ((2 if self.model.gated_mlp else 1) * h * f + f * h) / self.tp
        else:
            mlp = self.model.mlp_params() / self.tp
        params = attention + mlp + norms
        return round512(params * self.config.param_dtype_bytes)

    def layer_grad_bytes(self) -> int:
        """Main-gradient bytes of one layer (fp32, optionally ZeRO-2 sharded)."""
        weight_params = self.layer_weight_bytes() / self.config.param_dtype_bytes
        grads = weight_params * self.config.grad_dtype_bytes
        if self.config.zero_stage >= 2:
            grads /= self.dp
        return round512(grads)

    def layer_optimizer_bytes(self) -> int:
        """Adam state bytes of one layer (sharded under the distributed optimizer)."""
        weight_params = self.layer_weight_bytes() / self.config.param_dtype_bytes
        states = weight_params * self.config.optimizer_bytes_per_param
        if self.config.uses_distributed_optimizer:
            states /= self.dp
        return round512(states)

    def embedding_bytes(self) -> int:
        """Embedding parameter bytes on the first pipeline stage."""
        params = self.model.vocab_size * self.model.hidden_size / self.tp
        return round512(params * self.config.param_dtype_bytes)

    def persistent_tensors(self) -> list[TensorSpec]:
        """Weights, gradients and optimizer states allocated at start-up."""
        specs: list[TensorSpec] = []
        layers = self.parallelism.layers_per_rank(self.model.num_layers)
        embedding = self.embedding_bytes()
        embedding_grad = round512(
            embedding * self.config.grad_dtype_bytes / self.config.param_dtype_bytes
        )
        if self.is_first_stage:
            specs.append(TensorSpec("embedding.weight", embedding, TensorCategory.WEIGHT))
            specs.append(
                TensorSpec("embedding.grad", embedding_grad, TensorCategory.GRADIENT)
            )
        if self.is_last_stage and self.parallelism.pipeline_parallel > 1:
            # Megatron-style tied embeddings: the last stage holds its own copy
            # of the (input==output) embedding for the LM head plus its grad.
            specs.append(TensorSpec("lm_head.weight", embedding, TensorCategory.WEIGHT))
            specs.append(TensorSpec("lm_head.grad", embedding_grad, TensorCategory.GRADIENT))
        weight = self.layer_weight_bytes()
        grad = self.layer_grad_bytes()
        optim = self.layer_optimizer_bytes()
        for layer in range(layers):
            specs.append(TensorSpec(f"layer{layer}.weight", weight, TensorCategory.WEIGHT))
            specs.append(TensorSpec(f"layer{layer}.grad", grad, TensorCategory.GRADIENT))
            specs.append(TensorSpec(f"layer{layer}.optim", optim, TensorCategory.OPTIMIZER_STATE))
        return specs

    # ------------------------------------------------------------------ #
    # Activation tensors of one dense transformer layer
    # ------------------------------------------------------------------ #
    def saved_activation_tensors(self) -> list[TensorSpec]:
        """Activations a dense layer saves for its backward pass (per micro-batch)."""
        n, h, f, t = self.tokens, self.model.hidden_size, self.model.ffn_hidden_size, self.tp
        gated = 2 if self.model.gated_mlp else 1
        specs = [
            TensorSpec("ln1_out", round512(n * h * ACT_BYTES), TensorCategory.ACTIVATION, True),
            TensorSpec("qkv_proj", round512(3 * n * h * ACT_BYTES / t), TensorCategory.ACTIVATION, True),
            TensorSpec("attn_context", round512(n * h * ACT_BYTES / t), TensorCategory.ACTIVATION, True),
            TensorSpec("attn_proj_out", round512(n * h * ACT_BYTES), TensorCategory.ACTIVATION, True),
            TensorSpec("ln2_out", round512(n * h * ACT_BYTES), TensorCategory.ACTIVATION, True),
            TensorSpec("mlp_up", round512(gated * n * f * ACT_BYTES / t), TensorCategory.ACTIVATION, True),
            TensorSpec("mlp_act", round512(n * f * ACT_BYTES / t), TensorCategory.ACTIVATION, True),
            TensorSpec("mlp_down_out", round512(n * h * ACT_BYTES), TensorCategory.ACTIVATION, True),
            TensorSpec("dropout_mask", round512(n * h), TensorCategory.ACTIVATION, True),
            # Flash-attention softmax statistics (log-sum-exp), small but kept
            # until backward -- a classic "pinning" tensor for online allocators.
            TensorSpec(
                "attn_softmax_lse",
                round512(n * self.model.num_attention_heads * 4 / t),
                TensorCategory.ACTIVATION,
                True,
            ),
        ]
        return specs

    def recompute_checkpoint_tensors(self) -> list[TensorSpec]:
        """What survives the forward pass under full recomputation: the layer input."""
        n, h = self.tokens, self.model.hidden_size
        return [
            TensorSpec("layer_input_ckpt", round512(n * h * ACT_BYTES), TensorCategory.ACTIVATION, True)
        ]

    def forward_transient_tensors(self) -> list[TensorSpec]:
        """Operator workspaces freed within the forward pass of a layer."""
        n, h, f, t = self.tokens, self.model.hidden_size, self.model.ffn_hidden_size, self.tp
        return [
            TensorSpec("attn_tmp", round512(n * h * ACT_BYTES / t), TensorCategory.TEMPORARY),
            TensorSpec("mlp_tmp", round512(n * f * ACT_BYTES / t), TensorCategory.TEMPORARY),
            TensorSpec("residual_tmp", round512(n * h * ACT_BYTES), TensorCategory.TEMPORARY),
        ]

    def backward_transient_tensors(self) -> list[TensorSpec]:
        """Gradient temporaries freed within the backward pass of a layer."""
        n, h, f, t = self.tokens, self.model.hidden_size, self.model.ffn_hidden_size, self.tp
        return [
            TensorSpec("dgrad_hidden", round512(n * h * ACT_BYTES), TensorCategory.TEMPORARY),
            TensorSpec("dgrad_ffn", round512(n * f * ACT_BYTES / t), TensorCategory.TEMPORARY),
            TensorSpec("dgrad_qkv", round512(3 * n * h * ACT_BYTES / t), TensorCategory.TEMPORARY),
            TensorSpec("wgrad_tmp", round512(n * h * ACT_BYTES), TensorCategory.TEMPORARY),
        ]

    # ------------------------------------------------------------------ #
    # Embedding / pipeline-boundary activations
    # ------------------------------------------------------------------ #
    def embedding_activation(self) -> TensorSpec:
        """Output of the embedding lookup on the first stage (per micro-batch)."""
        size = round512(self.tokens * self.model.hidden_size * ACT_BYTES)
        return TensorSpec("embedding_out", size, TensorCategory.ACTIVATION, True)

    def pipeline_recv_buffer(self) -> TensorSpec:
        """P2P activation receive buffer between pipeline stages."""
        size = round512(self.tokens * self.model.hidden_size * ACT_BYTES)
        return TensorSpec("pp_recv_buffer", size, TensorCategory.COMM_BUFFER)

    def logits_activation(self) -> TensorSpec:
        """fp32 vocabulary logits of one micro-batch on the last stage.

        The LM head projects to the (tensor-parallel sharded) vocabulary and
        the cross-entropy loss keeps the logits in fp32 until the micro-batch's
        backward pass -- by far the largest activation on the last stage, and
        the reason the binding rank of a job is often the final pipeline stage
        once recomputation has shrunk everyone else's activations.
        """
        size = round512(self.tokens * self.model.vocab_size * 4 / self.tp)
        return TensorSpec("lm_head_logits", size, TensorCategory.ACTIVATION, True)

    # ------------------------------------------------------------------ #
    # Generation: KV caches and decode-step tensors
    # ------------------------------------------------------------------ #
    def kv_bytes_per_token(self) -> float:
        """Bytes one token of context adds to one layer's KV cache.

        Key and value vectors, tensor-parallel sharded like the attention
        projections: ``2 * hidden / tp`` activation-dtype elements per token.
        """
        return 2 * self.model.hidden_size * ACT_BYTES / self.tp

    def kv_cache_tensor(self, layer: int, context_tokens: int) -> TensorSpec:
        """One layer's KV cache over ``context_tokens`` of per-sequence context.

        Sized ``kv_bytes_per_token * micro_batch_size * context_tokens``:
        allocated at prefill (context = prompt length) and re-allocated larger
        each decode step as the context grows.  Never jittered -- the size is
        a deterministic function of sequence position, which is what lets the
        search planner's KV floor stay exact.
        """
        size = round512(
            self.kv_bytes_per_token() * self.config.micro_batch_size * context_tokens
        )
        return TensorSpec(f"layer{layer}.kv_cache", size, TensorCategory.KV_CACHE)

    def decode_transient_tensors(self) -> list[TensorSpec]:
        """Workspaces of one decode step over one layer (one token/sequence).

        The decode forward processes ``micro_batch_size`` tokens total, so its
        temporaries are a ``1 / sequence_length`` sliver of the prefill
        transients -- freed within the step that created them.
        """
        b, h, f, t = (
            self.config.micro_batch_size,
            self.model.hidden_size,
            self.model.ffn_hidden_size,
            self.tp,
        )
        return [
            TensorSpec("decode_attn_tmp", round512(b * h * ACT_BYTES / t), TensorCategory.TEMPORARY),
            TensorSpec("decode_mlp_tmp", round512(b * f * ACT_BYTES / t), TensorCategory.TEMPORARY),
            TensorSpec("decode_residual_tmp", round512(b * h * ACT_BYTES), TensorCategory.TEMPORARY),
        ]

    def decode_logits_tensor(self) -> TensorSpec:
        """Next-token fp32 logits of one decode step on the last stage.

        One vocabulary row per sequence (not per context token), sampled and
        freed within the step -- unlike training's ``lm_head_logits`` nothing
        pins it until a backward pass.
        """
        size = round512(self.config.micro_batch_size * self.model.vocab_size * 4 / self.tp)
        return TensorSpec("decode_logits", size, TensorCategory.TEMPORARY)

    # ------------------------------------------------------------------ #
    # MoE expert tensors (dynamic sizes)
    # ------------------------------------------------------------------ #
    def moe_static_tensors(self) -> list[TensorSpec]:
        """Per-micro-batch MoE tensors whose sizes do not depend on routing."""
        if not self.model.is_moe:
            return []
        n, h, e, k = self.tokens, self.model.hidden_size, self.model.num_experts, self.model.moe_top_k
        specs = [
            TensorSpec("router_logits", round512(n * e * ACT_BYTES), TensorCategory.ACTIVATION, True),
            TensorSpec("router_probs", round512(n * k * 4), TensorCategory.ACTIVATION, True),
            TensorSpec("dispatch_perm", round512(n * k * h * ACT_BYTES), TensorCategory.ACTIVATION, True),
        ]
        if self.model.moe_shared_expert_ffn:
            f = self.model.moe_shared_expert_ffn
            gated = 2 if self.model.gated_mlp else 1
            specs.append(
                TensorSpec(
                    "shared_expert_up",
                    round512(gated * n * f * ACT_BYTES / self.tp),
                    TensorCategory.ACTIVATION,
                    True,
                )
            )
            specs.append(
                TensorSpec(
                    "shared_expert_out",
                    round512(n * h * ACT_BYTES),
                    TensorCategory.ACTIVATION,
                    True,
                )
            )
        return specs

    def expert_activation_sizes(self, routing: Sequence[int]) -> list[int]:
        """Sizes of one routed layer's expert activations, as one flat vector.

        ``routing`` holds the tokens routed to each local expert.  An expert
        with tokens contributes its :data:`EXPERT_ACTIVATIONS` in that order
        (``expert{i}_input``, ``_up``, ``_act``, ``_out``), sized by its token
        count; an idle expert contributes none.
        """
        h = self.model.hidden_size * ACT_BYTES
        f = self.model.expert_ffn_hidden_size * ACT_BYTES
        up = (2 if self.model.gated_mlp else 1) * f
        sizes: list[int] = []
        for tokens in routing:
            if tokens > 0:
                io = round512(tokens * h)
                sizes += (io, round512(tokens * up), round512(tokens * f), io)
        return sizes

    # ------------------------------------------------------------------ #
    # Expert-parallel all-to-all communication transients
    # ------------------------------------------------------------------ #
    def dispatch_send_tokens(self) -> int:
        """Token assignments this EP rank dispatches through the all-to-all.

        The origin side of the all-to-all is routing-independent: the
        micro-batch is sharded evenly over the EP group and every local token
        contributes ``top_k`` assignments, so this is the rank's balanced
        share of the ``tokens * top_k`` routed load.  Summed over the EP
        group it equals the total routed load exactly -- the same invariant
        the receive side satisfies through the global gating draw.
        """
        if not self.model.is_moe:
            return 0
        return balanced_split(self.tokens * self.model.moe_top_k, self.ep)[self.ep_rank]

    def a2a_bytes(self, token_count: int) -> int:
        """One all-to-all staging buffer for ``token_count`` assignments (0: no buffer)."""
        factor = self.config.moe_comm_factor
        if token_count <= 0 or factor <= 0:
            return 0
        return round512(factor * token_count * self.model.hidden_size * ACT_BYTES)

    def a2a_buffers(self, direction: str) -> tuple[tuple[str, int | None], ...]:
        """One routed layer's all-to-all staging buffers, as ``(tag, size)`` in allocation order.

        ``"dispatch"``: ``a2a_dispatch_send`` holds the activations of the
        assignments leaving this rank (the balanced origin share,
        :meth:`dispatch_send_tokens`), then ``a2a_dispatch_recv`` those
        landing on the local experts.  ``"combine"`` mirrors it with the
        directions swapped: ``a2a_combine_send`` sends the locally processed
        assignments back, then ``a2a_combine_recv`` brings the origin share
        home, so combine conserves the routed load across the EP group
        exactly like dispatch does.  The origin side's size is fixed; the
        local side's is ``None``, because routing sizes it per layer:
        :meth:`a2a_bytes` of the tokens routed to the local experts, a
        dynamic request (the load-imbalance-sensitive side).  A dense model,
        or a ``moe_comm_factor`` of 0 (the comm-free baseline trace), has none.
        """
        if direction not in ("dispatch", "combine"):
            raise ValueError(f"direction must be dispatch or combine, got {direction!r}")
        if not self.model.is_moe or self.config.moe_comm_factor <= 0:
            return ()
        origin = self.a2a_bytes(self.dispatch_send_tokens())
        if direction == "dispatch":
            buffers = (("a2a_dispatch_send", origin), ("a2a_dispatch_recv", None))
        else:
            buffers = (("a2a_combine_send", None), ("a2a_combine_recv", origin))
        return tuple(buffer for buffer in buffers if buffer[1] != 0)

    # ------------------------------------------------------------------ #
    # ZeRO / distributed-optimizer communication buffers
    # ------------------------------------------------------------------ #
    def grad_bucket_bytes(self) -> int:
        """Reduce-scatter bucket used during backward under ZeRO."""
        layers = self.parallelism.layers_per_rank(self.model.num_layers)
        layer_params = self.layer_weight_bytes() / self.config.param_dtype_bytes
        bucket_layers = max(1, layers // 4)
        return round512(layer_params * bucket_layers * self.config.grad_dtype_bytes)

    def param_gather_bytes(self) -> int:
        """All-gather buffer used at the optimizer step under ZeRO."""
        layers = self.parallelism.layers_per_rank(self.model.num_layers)
        layer_params = self.layer_weight_bytes() / self.config.param_dtype_bytes
        bucket_layers = max(1, layers // 4)
        return round512(layer_params * bucket_layers * self.config.param_dtype_bytes)

    # ------------------------------------------------------------------ #
    # Aggregates used by experiments
    # ------------------------------------------------------------------ #
