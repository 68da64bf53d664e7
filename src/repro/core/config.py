"""Configuration of the STAlloc pipeline, importable without the pipeline.

Sweep specs, cache keys and the CLI validate and hash these knobs without
planning anything, so they live apart from the modules that act on them; each
class is re-exported from the module it configures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: How the homophase stage lays out two fused plans (see
#: :func:`repro.core.homophase.attempt_fusion`).
FUSION_STRATEGIES = ("repack", "insertion")


@dataclass
class GlobalPlannerConfig:
    """Policy knobs of the global planner (exposed for ablation benchmarks)."""

    #: Process HomoSize groups from largest to smallest (the paper's order).
    #: Ascending order is only useful to demonstrate why descending wins.
    descending_size_order: bool = True
    #: Allow smaller plans to reuse idle windows of larger layers.
    enable_gap_insertion: bool = True


@dataclass
class SynthesizerConfig:
    """Tunable behaviour of the Plan Synthesizer.

    The defaults reproduce the paper's design; the switches exist for the
    ablation studies (fusion on/off, gap insertion on/off, planning order).
    """

    enable_fusion: bool = True
    fusion_strategy: str = "repack"
    enable_gap_insertion: bool = True
    descending_size_order: bool = True
    enable_dynamic_reuse: bool = True
    validate_plan: bool = True
    planner: GlobalPlannerConfig = field(init=False)

    def __post_init__(self) -> None:
        self.planner = GlobalPlannerConfig(
            descending_size_order=self.descending_size_order,
            enable_gap_insertion=self.enable_gap_insertion,
        )


@dataclass
class STAllocConfig:
    """End-to-end configuration of the STAlloc pipeline."""

    enable_fusion: bool = True
    fusion_strategy: str = "repack"
    enable_gap_insertion: bool = True
    descending_size_order: bool = True
    enable_dynamic_reuse: bool = True
    validate_plan: bool = True
    profiler_iterations: int = 3

    def __post_init__(self) -> None:
        for name in (
            "enable_fusion",
            "enable_gap_insertion",
            "descending_size_order",
            "enable_dynamic_reuse",
            "validate_plan",
        ):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.fusion_strategy not in FUSION_STRATEGIES:
            raise ValueError(
                f"fusion_strategy must be one of {', '.join(FUSION_STRATEGIES)}, "
                f"got {self.fusion_strategy!r}"
            )
        iterations = self.profiler_iterations
        if isinstance(iterations, bool) or not isinstance(iterations, int) or iterations < 1:
            raise ValueError(f"profiler_iterations must be an int >= 1, got {iterations!r}")

    def synthesizer_config(self) -> SynthesizerConfig:
        return SynthesizerConfig(
            enable_fusion=self.enable_fusion,
            fusion_strategy=self.fusion_strategy,
            enable_gap_insertion=self.enable_gap_insertion,
            descending_size_order=self.descending_size_order,
            enable_dynamic_reuse=self.enable_dynamic_reuse,
            validate_plan=self.validate_plan,
        )
