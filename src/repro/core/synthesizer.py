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

The synthesizer never reads a dynamic request's size, so traces that differ
only in routed-expert sizes -- the EP ranks of one pipeline stage -- have one
plan.  :class:`LastPlan` remembers the last *plan shape* synthesized and hands
its plan to the next profile of the same shape.
"""

from __future__ import annotations

import time
from array import array
from copy import deepcopy
from dataclasses import replace
from itertools import compress

from repro.core.columns import values_at
from repro.core.config import STAllocConfig
from repro.core.dynamic_space import locate_dynamic_reusable_spaces
from repro.core.homophase import build_homophase_groups, fuse_adjacent_groups
from repro.core.plan import DynamicRouting, SynthesizedPlan
from repro.core.planner import build_global_plan, plan_summary
from repro.core.profiler import ProfileResult, static_sizes
from repro.obs.tracer import counter as _obs_counter
from repro.obs.tracer import span as _obs_span


class PlanSynthesizer:
    """Generates the ahead-of-time allocation plan from a profiling result."""

    def __init__(self, config: STAllocConfig | None = None):
        self.config = config or STAllocConfig()

    def synthesize(self, profile: ProfileResult) -> SynthesizedPlan:
        """Produce the static plan and dynamic reusable spaces for one profile."""
        started = time.perf_counter()
        # The lower bound first, so its scratch is freed before the plan is built.
        peak_static_demand = profile.peak_static_bytes()

        # --- Static allocation planning (§5.1) -------------------------- #
        phase_groups = build_homophase_groups(profile.columns)
        fused_groups, fusion_count = fuse_adjacent_groups(
            phase_groups, enable_fusion=self.config.enable_fusion
        )
        dynamic_groups = profile.dynamic_groups
        reuse_idle_space = bool(self.config.enable_dynamic_reuse and dynamic_groups)
        static_plan, layers, layered_pool = build_global_plan(
            fused_groups, self.config, idle_space_reused=reuse_idle_space
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
            "peak_static_demand_bytes": peak_static_demand,
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


class PlanShape:
    """Everything :meth:`PlanSynthesizer.synthesize` reads of one profile.

    The profile's request columns with every dynamic row's size zeroed, each
    dynamic request's alloc and free module (as indices into the module
    table), the module table, ``module_spans``, ``end_time`` and the
    configuration.  Two profiles of one shape get one plan.  Shapes compare
    exactly, the request count first and then the columns with ``==``.
    """

    __slots__ = ("columns", "dynamic_modules", "modules", "module_spans", "end_time", "config")

    def __init__(self, profile: ProfileResult, config: STAllocConfig):
        columns = profile.columns
        events = profile.trace.columns
        pairing = events.pairing()
        self.columns = columns
        self.dynamic_modules = tuple(
            array("i", values_at(list(compress(positions, columns.dyn)))(events.module_index))
            for positions in (pairing.alloc_pos, pairing.free_pos)
        )
        self.modules = events.modules
        self.module_spans = profile.module_spans
        self.end_time = profile.end_time
        self.config = config

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanShape):
            return NotImplemented
        mine, theirs = self.columns, other.columns
        if len(mine.req_id) != len(theirs.req_id):
            return False
        return (
            self.end_time == other.end_time
            and mine.dyn == theirs.dyn
            and mine.alloc_time == theirs.alloc_time
            and mine.free_time == theirs.free_time
            and mine.req_id == theirs.req_id
            and static_sizes(mine) == static_sizes(theirs)
            and mine.alloc_phase == theirs.alloc_phase
            and mine.free_phase == theirs.free_phase
            and self.dynamic_modules == other.dynamic_modules
            and self.modules == other.modules
            and self.module_spans == other.module_spans
            and self.config == other.config
        )


class LastPlan:
    """A one-entry memo: the last plan shape synthesized, and its plan.

    :meth:`synthesize` hands a profile of the remembered shape the remembered
    plan -- its validated static plan, reusable spaces and request routing
    shared, with its own copy of ``synthesis_info`` and its own
    ``synthesis_seconds`` (the lookup's) -- and counts the hit as the obs
    counter ``plan.reused``; any other profile is synthesized and becomes the
    remembered one.  A lookup whose request count differs costs that one
    comparison.  One entry is enough where repeats arrive back to back, as
    the EP ranks of one pipeline stage do.
    """

    __slots__ = ("shape", "plan")

    def __init__(self) -> None:
        self.shape: PlanShape | None = None
        self.plan: SynthesizedPlan | None = None

    def synthesize(self, profile: ProfileResult, config: STAllocConfig) -> SynthesizedPlan:
        started = time.perf_counter()
        shape = None
        if self.shape is not None and len(self.shape.columns.req_id) == profile.num_requests:
            shape = PlanShape(profile, config)
            if shape == self.shape:
                _obs_counter("plan.reused")
                plan = self.plan
                return replace(
                    plan,
                    synthesis_info=deepcopy(plan.synthesis_info),
                    synthesis_seconds=time.perf_counter() - started,
                )
        self.shape = self.plan = None  # forget the old plan before making the new one
        plan = PlanSynthesizer(config).synthesize(profile)
        self.shape = shape if shape is not None else PlanShape(profile, config)
        self.plan = plan
        return plan
