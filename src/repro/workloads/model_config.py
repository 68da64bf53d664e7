"""Transformer model architecture descriptions.

Only the quantities that determine memory behaviour are modelled: hidden
sizes, layer counts, attention/FFN shapes, vocabulary size, and -- for
Mixture-of-Experts models -- the expert configuration that makes expert-layer
allocation sizes dynamic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.domain import check_fields


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of one transformer language model."""

    name: str
    hidden_size: int = field(metadata={"min": 1})
    num_layers: int = field(metadata={"min": 1})
    num_attention_heads: int = field(metadata={"min": 1})
    ffn_hidden_size: int = field(metadata={"min": 1})
    vocab_size: int = field(metadata={"min": 1})
    seq_length: int = field(default=4096, metadata={"min": 1})
    num_query_groups: int | None = field(default=None, metadata={"min": 1})
    gated_mlp: bool = True
    tie_embeddings: bool = True
    # Mixture-of-Experts configuration (0 for dense models).
    num_experts: int = field(default=0, metadata={"min": 0})
    moe_top_k: int = field(default=2, metadata={"min": 1})
    expert_ffn_hidden_size: int = field(default=0, metadata={"min": 0})
    moe_shared_expert_ffn: int = field(default=0, metadata={"min": 0})

    def __post_init__(self) -> None:
        check_fields(self)
        if self.hidden_size % self.num_attention_heads:
            raise ValueError(
                f"hidden_size ({self.hidden_size}) must be divisible by "
                f"num_attention_heads ({self.num_attention_heads})"
            )
        if self.num_experts and self.expert_ffn_hidden_size <= 0:
            raise ValueError("MoE models must set expert_ffn_hidden_size")
        if self.num_experts and self.moe_top_k > self.num_experts:
            raise ValueError(
                f"moe_top_k ({self.moe_top_k}) must not exceed num_experts ({self.num_experts})"
            )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def is_moe(self) -> bool:
        return self.num_experts > 0

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_attention_heads

    @property
    def kv_heads(self) -> int:
        return self.num_query_groups or self.num_attention_heads

    def attention_params(self) -> int:
        """Parameters of one attention block (QKV + output projection)."""
        h = self.hidden_size
        q = h * h
        kv = 2 * h * self.kv_heads * self.head_dim
        out = h * h
        return q + kv + out

    def mlp_params(self) -> int:
        """Parameters of one dense MLP block."""
        h, f = self.hidden_size, self.ffn_hidden_size
        up = (2 if self.gated_mlp else 1) * h * f
        down = f * h
        return up + down

    def expert_params(self) -> int:
        """Parameters of one expert MLP (MoE models only)."""
        if not self.is_moe:
            return 0
        h, f = self.hidden_size, self.expert_ffn_hidden_size
        up = (2 if self.gated_mlp else 1) * h * f
        down = f * h
        return up + down

    def moe_layer_params(self) -> int:
        """Parameters of one MoE layer (router + all experts + shared expert)."""
        if not self.is_moe:
            return 0
        router = self.hidden_size * self.num_experts
        shared = 0
        if self.moe_shared_expert_ffn:
            h, f = self.hidden_size, self.moe_shared_expert_ffn
            shared = (2 if self.gated_mlp else 1) * h * f + f * h
        return router + self.num_experts * self.expert_params() + shared

    def layer_params(self) -> int:
        """Parameters of one transformer layer (attention + MLP/MoE + norms)."""
        norms = 2 * self.hidden_size
        mlp = self.moe_layer_params() if self.is_moe else self.mlp_params()
        return self.attention_params() + mlp + norms

    def embedding_params(self) -> int:
        embeddings = self.vocab_size * self.hidden_size
        if not self.tie_embeddings:
            embeddings *= 2
        return embeddings

    def total_params(self) -> int:
        """Total parameter count of the full (unsharded) model."""
        return self.embedding_params() + self.num_layers * self.layer_params() + self.hidden_size

    def active_params(self) -> int:
        """Parameters used per token (differs from total only for MoE)."""
        if not self.is_moe:
            return self.total_params()
        per_layer = (
            self.attention_params()
            + 2 * self.hidden_size
            + self.hidden_size * self.num_experts
            + self.moe_top_k * self.expert_params()
        )
        if self.moe_shared_expert_ffn:
            h, f = self.hidden_size, self.moe_shared_expert_ffn
            per_layer += (2 if self.gated_mlp else 1) * h * f + f * h
        return self.embedding_params() + self.num_layers * per_layer + self.hidden_size
