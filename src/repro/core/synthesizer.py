"""Plan Synthesizer (§5): static allocation planning + dynamic reusable space.

The synthesizer partitions profiled requests into static and dynamic subsets,
produces a low-fragmentation :class:`StaticAllocationPlan` for the static
requests via HomoPhase/HomoSize grouping, then locates the Dynamic Reusable
Space each HomoLayer group of dynamic requests may use at runtime.

Whether that space will be used is the one fact about the workload the global
planner is told: with dynamic groups to serve, the idle bytes of the layered
plan are capacity, so the planner does not trade them for a tighter pool.
``synthesis_info`` names the candidate that won (``placement_order``: ``size``
or ``lifetime``) and what the layered plan alone reserves
(``layered_pool_bytes``).
"""

from __future__ import annotations

import time

from repro.core.config import SynthesizerConfig
from repro.core.dynamic_space import locate_dynamic_reusable_spaces
from repro.core.homophase import build_homophase_groups, fuse_adjacent_groups
from repro.core.plan import DynamicRouting, SynthesizedPlan
from repro.core.planner import build_global_plan, plan_summary
from repro.core.profiler import ProfileResult
from repro.obs.tracer import span as _obs_span


class PlanSynthesizer:
    """Generates the ahead-of-time allocation plan from a profiling result."""

    def __init__(self, config: SynthesizerConfig | None = None):
        self.config = config or SynthesizerConfig()

    def synthesize(self, profile: ProfileResult) -> SynthesizedPlan:
        """Produce the static plan and dynamic reusable spaces for one profile."""
        started = time.perf_counter()

        # --- Static allocation planning (§5.1) -------------------------- #
        phase_groups = build_homophase_groups(profile.columns)
        fused_groups, fusion_count = fuse_adjacent_groups(
            phase_groups,
            strategy=self.config.fusion_strategy,
            enable_fusion=self.config.enable_fusion,
        )
        dynamic_groups = profile.dynamic_groups
        reuse_idle_space = bool(self.config.enable_dynamic_reuse and dynamic_groups)
        static_plan, layers, layered_pool = build_global_plan(
            fused_groups, self.config.planner, idle_space_reused=reuse_idle_space
        )
        if self.config.validate_plan:
            with _obs_span("plan.validate", decisions=len(static_plan)):
                static_plan.validate()

        # --- Dynamic reusable space (§5.2) ------------------------------ #
        if reuse_idle_space:
            reusable = locate_dynamic_reusable_spaces(
                dynamic_groups, static_plan, profile.module_spans
            )
        else:
            reusable = {}

        info = {
            "num_static_requests": len(static_plan),
            "num_dynamic_requests": sum(len(group.req_ids) for group in dynamic_groups),
            "num_homophase_groups": len(phase_groups),
            "num_groups_after_fusion": len(fused_groups),
            "num_fusions": fusion_count,
            "num_homolayer_groups": len(dynamic_groups),
            "static_pool_bytes": static_plan.pool_size,
            "peak_static_demand_bytes": profile.peak_static_bytes(),
            "layers": plan_summary(layers),
            "subrange_insertions": sum(layer.subrange_insertions for layer in layers),
            "placement_order": "lifetime" if static_plan.pool_size < layered_pool else "size",
            "layered_pool_bytes": layered_pool,
        }
        return SynthesizedPlan(
            static_plan=static_plan,
            dynamic_reusable_spaces=reusable,
            dynamic_request_groups=DynamicRouting(
                (group.key, group.req_ids) for group in dynamic_groups
            ),
            synthesis_info=info,
            synthesis_seconds=time.perf_counter() - started,
        )
