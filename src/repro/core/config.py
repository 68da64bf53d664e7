"""Configuration of the STAlloc pipeline, importable without the pipeline.

Sweep specs, cache keys and the CLI validate and hash these knobs without
planning anything, so they live apart from the modules that act on them;
:class:`STAllocConfig` is re-exported from :mod:`repro.core.stalloc`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.domain import check_fields

#: How the homophase stage lays out two fused plans (see
#: :func:`repro.core.homophase.attempt_fusion`).
FUSION_STRATEGIES = ("repack", "insertion")


@dataclass
class STAllocConfig:
    """End-to-end configuration of the STAlloc pipeline.

    The profiler, the plan synthesizer and the global planner each read the
    fields they need.  The defaults reproduce the paper's design; the
    switches exist for the ablation studies (fusion on/off, gap insertion
    on/off, planning order).
    """

    enable_fusion: bool = True
    #: How the homophase stage lays out two fused plans.
    fusion_strategy: str = field(default="repack", metadata={"choices": FUSION_STRATEGIES})
    #: Allow smaller plans to reuse idle windows of larger layers.
    enable_gap_insertion: bool = True
    #: Process HomoSize groups from largest to smallest (the paper's order).
    #: Ascending order is only useful to demonstrate why descending wins.
    descending_size_order: bool = True
    enable_dynamic_reuse: bool = True
    validate_plan: bool = True
    profiler_iterations: int = field(default=3, metadata={"min": 1})

    def __post_init__(self) -> None:
        check_fields(self)

    # Read by benchmarks/e2e/stages.py, which hands the result to
    # ``PlanSynthesizer``; the synthesizer reads this config itself.
    def synthesizer_config(self) -> "STAllocConfig":
        return self
