"""Mixture-of-Experts token-routing simulation.

MoE layers decide *at runtime* how many tokens each expert processes, so the
sizes of expert activation tensors are only known when the layer executes.
This is the "dynamicity" STAlloc's dynamic allocator handles (§5.2/§6.2).

The router draws per-expert token counts from a seeded multinomial with a
configurable imbalance factor, so traces are reproducible while still varying
across micro-batches, layers and iterations exactly like a real gating
network's output does.

Expert parallelism splits the expert set over ``num_experts /
num_local_experts`` expert-parallel ranks.  The gating decision is *global*
-- one draw assigns every token to its experts -- and each EP rank merely
observes the slice of that decision landing on its local experts.  Routers of
the same job therefore share a seed (so their global draws agree and token
counts are conserved across ranks) and differ only in ``ep_rank``, the slice
they return.  With ``imbalance == 0`` the split is an exact deterministic
balanced partition, so every EP rank sees the same load -- the property the
rank-deduplication layer relies on to collapse EP ranks into one equivalence
class.

Every draw is keyed by the *layer execution* it belongs to: the RNG for one
``(layer, microbatch)`` pair is derived from ``(seed, layer, microbatch)``
alone, never from the order in which ``route`` was called.  Routers of
different ranks execute their schedules in different orders (1F1B warm-up
depth varies by stage), so a call-order-dependent stream would hand the same
layer execution different gating decisions on different ranks -- breaking
token conservation and the all-to-all transient sizes derived from it.  The
draw itself is :func:`repro.workloads.routing_draw.routed_counts`, a stdlib
port of numpy's, memoised per process: asking twice (forward and the
recomputed backward of one micro-batch, the dispatch/combine pair, the trace
generator and every timeline of the same job) returns the one draw.
"""

from __future__ import annotations

from repro.workloads.parallelism import balanced_split
from repro.workloads.training import validate_seed


class ExpertRouter:
    """Deterministic (seeded) simulation of top-k token routing."""

    def __init__(
        self,
        num_experts: int,
        num_local_experts: int,
        top_k: int,
        *,
        seed: int = 0,
        imbalance: float = 0.3,
        ep_rank: int = 0,
    ):
        if num_experts < 1 or num_local_experts < 1:
            raise ValueError("num_experts and num_local_experts must be >= 1")
        if num_local_experts > num_experts:
            raise ValueError("num_local_experts cannot exceed num_experts")
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        validate_seed(seed)
        if not 0.0 <= imbalance <= 1.0:
            raise ValueError(f"imbalance must be in [0, 1], got {imbalance}")
        if ep_rank < 0:
            raise ValueError(f"ep_rank must be >= 0, got {ep_rank}")
        if (ep_rank + 1) * num_local_experts > num_experts:
            raise ValueError(
                f"ep_rank {ep_rank} with {num_local_experts} local experts exceeds "
                f"the {num_experts} global experts"
            )
        self.num_experts = num_experts
        self.num_local_experts = num_local_experts
        self.top_k = top_k
        self.imbalance = imbalance
        self.ep_rank = ep_rank
        self.seed = seed

    @property
    def local_expert_slice(self) -> slice:
        """Indices of the global experts hosted on this EP rank."""
        start = self.ep_rank * self.num_local_experts
        return slice(start, start + self.num_local_experts)

    def route_global(
        self, num_tokens: int, *, layer: int = 0, microbatch: int = 0
    ) -> list[int]:
        """Tokens assigned to *every* global expert for one layer execution.

        This is the shared gating decision: routers constructed with the same
        seed produce the same global counts for the same ``(layer,
        microbatch)`` execution regardless of their ``ep_rank`` *and*
        regardless of call order, which is what conserves the total routed
        load (``num_tokens * top_k``) across the expert-parallel group.  With
        ``imbalance == 0`` the split is an exact balanced partition and
        consumes no randomness at all, so it is identical for every seed as
        well.
        """
        if num_tokens < 0:
            raise ValueError(f"num_tokens must be non-negative, got {num_tokens}")
        if layer < 0 or microbatch < 0:
            raise ValueError(
                f"layer and microbatch must be non-negative, got ({layer}, {microbatch})"
            )
        total_assignments = num_tokens * self.top_k
        if num_tokens == 0:
            return [0] * self.num_experts
        if self.imbalance == 0.0:
            return balanced_split(total_assignments, self.num_experts)
        # The draw and its ziggurat tables load at the first routed draw:
        # dense, generation and balanced runs never hold them.
        from repro.workloads.routing_draw import routed_counts

        return list(
            routed_counts(
                self.seed, layer, microbatch, self.num_experts, total_assignments,
                self.imbalance,
            )
        )

    def route(self, num_tokens: int, *, layer: int = 0, microbatch: int = 0) -> list[int]:
        """Tokens assigned to each *local* expert for one layer execution.

        The total routed load across all experts is ``num_tokens * top_k``
        (every token selects ``top_k`` experts); this rank only sees the slice
        destined for its local experts.  ``layer``/``microbatch`` identify the
        execution: they alone (with the seed) determine the draw, so different
        executions produce different -- but reproducible and cross-rank
        consistent -- splits.
        """
        return self.route_global(num_tokens, layer=layer, microbatch=microbatch)[
            self.local_expert_slice
        ]
