"""Canonical accelerator specifications (the single source of truth).

Every layer that needs to know what a device *is* -- the memory capacity the
:class:`~repro.gpu.device.Device` presets enforce, the compute ceiling and
all-to-all bandwidth the :mod:`repro.timeline` simulator prices phases and
expert-parallel collectives with -- reads it from :data:`GPU_SPECS` here, so a
testbed device cannot drift apart between the memory and timing models.

Bandwidth is optionally *tiered*: a spec may carry distinct intra-node
(NVLink-class) and inter-node (IB-class) all-to-all rates plus the node size
(``gpus_per_node``).  The flat :attr:`GPUSpec.a2a_gbytes_per_sec` stays the
degenerate single-tier default -- every stock spec leaves the tier fields
unset, so existing timing results are bit-identical -- and
:class:`NodeTopology` maps ``(pp, ep)`` rank coordinates onto nodes so the
timeline can price each participant's tier mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class GPUSpec:
    """Compute and memory capability of one accelerator."""

    name: str
    peak_tflops: float       # dense BF16 peak
    achievable_mfu: float    # model FLOPs utilisation of a well-tuned run
    memory_gib: int
    #: Effective per-GPU all-to-all bandwidth (GB/s) for expert-parallel
    #: dispatch/combine collectives -- the NVLink/IB mix a well-tuned MoE job
    #: achieves, not the link peak.  Used by the timeline simulator to turn
    #: routed bytes into communication seconds, and as the single flat tier
    #: when the hierarchical fields below are unset.
    a2a_gbytes_per_sec: float = 25.0
    #: Intra-node all-to-all bandwidth (GB/s, NVLink-class); ``None`` falls
    #: back to the flat :attr:`a2a_gbytes_per_sec`.
    intra_node_gbytes_per_sec: float | None = None
    #: Inter-node all-to-all bandwidth (GB/s, IB-class); ``None`` falls back
    #: to the flat :attr:`a2a_gbytes_per_sec`.
    inter_node_gbytes_per_sec: float | None = None
    #: Ranks per node for the hierarchical fabric; ``0`` means "one node"
    #: (every rank co-located -- the degenerate single-tier topology).
    gpus_per_node: int = 0
    #: HBM read bandwidth (GB/s).  Decode steps of generation workloads are
    #: KV-read bound -- each step streams the whole cached context through the
    #: attention kernels -- so the timeline prices a decode step's memory term
    #: as ``kv_bytes(context) / hbm_gbytes_per_sec``.
    hbm_gbytes_per_sec: float = 2000.0

    def __post_init__(self) -> None:
        # ``0 < x < inf`` also rejects NaN, which every comparison fails.
        for field_name in (
            "a2a_gbytes_per_sec", "hbm_gbytes_per_sec",
            "intra_node_gbytes_per_sec", "inter_node_gbytes_per_sec",
        ):
            value = getattr(self, field_name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{field_name} must be positive, got {value}")
        if not isinstance(self.gpus_per_node, int) or isinstance(self.gpus_per_node, bool) \
                or self.gpus_per_node < 0:
            raise ValueError(
                f"gpus_per_node must be a non-negative int, got {self.gpus_per_node!r}"
            )

    @property
    def achievable_flops(self) -> float:
        return self.peak_tflops * 1e12 * self.achievable_mfu

    # ------------------------------------------------------------------ #
    # Tiered-fabric accessors
    # ------------------------------------------------------------------ #
    @property
    def intra_tier_gbytes_per_sec(self) -> float:
        """Effective fast-tier rate (falls back to the flat a2a rate)."""
        if self.intra_node_gbytes_per_sec is not None:
            return self.intra_node_gbytes_per_sec
        return self.a2a_gbytes_per_sec

    @property
    def inter_tier_gbytes_per_sec(self) -> float:
        """Effective slow-tier rate (falls back to the flat a2a rate)."""
        if self.inter_node_gbytes_per_sec is not None:
            return self.inter_node_gbytes_per_sec
        return self.a2a_gbytes_per_sec

    @property
    def fastest_tier_gbytes_per_sec(self) -> float:
        """The fastest effective tier -- what admissible bounds must price at."""
        return max(self.intra_tier_gbytes_per_sec, self.inter_tier_gbytes_per_sec)

    @property
    def is_tiered(self) -> bool:
        """Whether the hierarchical pricing path can differ from the flat one.

        A multi-node layout with equal tiers is *not* tiered: every byte moves
        at the same rate, so the flat formula is exact (and bit-identical to
        the single-tier simulator).
        """
        return (
            self.gpus_per_node > 0
            and self.intra_tier_gbytes_per_sec != self.inter_tier_gbytes_per_sec
        )


@dataclass(frozen=True)
class NodeTopology:
    """Placement of ``(pp, ep)`` rank coordinates onto nodes.

    Ranks are linearised expert-major (``index = ep * pp + stage``) and
    filled into nodes of ``gpus_per_node`` consecutive slots -- the layout a
    launcher assigns when expert-parallel groups are the outer dimension.
    ``gpus_per_node <= 0`` collapses to a single node (every coordinate
    co-located), the degenerate topology the flat fabric prices.
    """

    pipeline_parallel: int
    expert_parallel: int
    gpus_per_node: int = 0

    def __post_init__(self) -> None:
        if self.pipeline_parallel < 1 or self.expert_parallel < 1:
            raise ValueError(
                "pipeline_parallel and expert_parallel must be >= 1, got "
                f"({self.pipeline_parallel}, {self.expert_parallel})"
            )

    def node_of(self, stage: int, ep: int) -> int:
        """Node index hosting coordinate ``(stage, ep)``."""
        if self.gpus_per_node <= 0:
            return 0
        return (ep * self.pipeline_parallel + stage) // self.gpus_per_node

    def intra_fraction(self, stage: int, ep: int) -> float:
        """Fraction of this rank's EP peers (itself included) on its node.

        In a balanced all-to-all each participant exchanges ``1/E`` of its
        bytes with every EP peer; the share staying on the fast tier is the
        share of peers co-located with it.
        """
        experts = self.expert_parallel
        if self.gpus_per_node <= 0 or experts <= 1:
            return 1.0
        node = self.node_of(stage, ep)
        local = sum(1 for peer in range(experts) if self.node_of(stage, peer) == node)
        return local / experts

    def ep_group_spans_nodes(self, stage: int) -> bool:
        """Whether stage ``stage``'s expert-parallel group crosses nodes."""
        if self.gpus_per_node <= 0:
            return False
        nodes = {self.node_of(stage, ep) for ep in range(self.expert_parallel)}
        return len(nodes) > 1


#: The paper's testbed accelerators, keyed by the device name used throughout
#: the experiments and sweep specs.
GPU_SPECS: dict[str, GPUSpec] = {
    "A800-80GB": GPUSpec(
        "A800-80GB", peak_tflops=312.0, achievable_mfu=0.52, memory_gib=80,
        a2a_gbytes_per_sec=50.0, hbm_gbytes_per_sec=2039.0,
    ),
    "H200-141GB": GPUSpec(
        "H200-141GB", peak_tflops=989.0, achievable_mfu=0.47, memory_gib=141,
        a2a_gbytes_per_sec=112.0, hbm_gbytes_per_sec=4800.0,
    ),
    "MI210-64GB": GPUSpec(
        "MI210-64GB", peak_tflops=181.0, achievable_mfu=0.45, memory_gib=64,
        a2a_gbytes_per_sec=40.0, hbm_gbytes_per_sec=1638.0,
    ),
}


def get_gpu(name_or_spec: str | GPUSpec) -> GPUSpec:
    """Resolve a device name (or pass an explicit spec through) to a GPUSpec."""
    if isinstance(name_or_spec, GPUSpec):
        return name_or_spec
    try:
        return GPU_SPECS[name_or_spec]
    except KeyError:
        raise ValueError(
            f"unknown GPU {name_or_spec!r}; available: {', '.join(sorted(GPU_SPECS))}"
        ) from None
