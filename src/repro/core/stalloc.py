"""The STAlloc facade: profile -> synthesize -> runtime allocation.

:class:`STAlloc` ties the three components of the paper together behind one
object so downstream users (examples, experiments, the replay simulator) can
write::

    stalloc = STAlloc.from_trace(trace)
    allocator = stalloc.build_runtime_allocator(device)

which mirrors deploying the real system: run the Allocation Profiler for a few
iterations, feed the result to the Plan Synthesizer, then load the Runtime
Allocator (a pluggable PyTorch allocator in the original) for the actual
training run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

from repro.core.config import STAllocConfig
from repro.core.plan import SynthesizedPlan
from repro.core.profiler import AllocationProfiler, ProfileResult
from repro.core.runtime import RuntimeAllocator
from repro.core.synthesizer import LastPlan, PlanSynthesizer
from repro.gpu.device import Device
from repro.version import PLAN_FORMAT_VERSION
from repro.workloads.trace import Trace


@dataclass
class STAlloc:
    """Profiled + planned STAlloc instance for one training configuration."""

    profile: ProfileResult
    plan: SynthesizedPlan
    config: STAllocConfig = field(default_factory=STAllocConfig)
    #: The planning report, once derived.  Instances loaded from a serialized
    #: plan start with the stored one: their (discarded) profile can no longer
    #: contribute to it.
    cached_report: dict | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_trace(
        cls,
        trace: Trace,
        config: STAllocConfig | None = None,
        *,
        last_plan: LastPlan | None = None,
    ) -> "STAlloc":
        """Run the full offline pipeline (profiler + plan synthesizer) on a trace.

        With ``last_plan`` the plan comes through that one-entry memo: a trace
        of the shape it remembers shares the remembered plan.
        """
        config = config or STAllocConfig()
        profiler = AllocationProfiler(iterations=config.profiler_iterations)
        profile = profiler.profile(trace)
        if last_plan is None:
            plan = PlanSynthesizer(config).synthesize(profile)
        else:
            plan = last_plan.synthesize(profile, config)
        return cls(profile=profile, plan=plan, config=config)

    # ------------------------------------------------------------------ #
    # Runtime
    # ------------------------------------------------------------------ #
    def build_runtime_allocator(self, device: Device) -> RuntimeAllocator:
        """Instantiate the runtime allocator backed by this instance's plan."""
        return RuntimeAllocator(
            device,
            self.plan,
            enable_dynamic_reuse=self.config.enable_dynamic_reuse,
            plan_validated=self.config.validate_plan,
            profiled=self.profile.trace.columns,
        )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def planning_report(self) -> dict:
        """Summary of the offline pipeline: group counts, pool size, timings.

        The part that is a function of the trace and the configuration is
        derived once per instance (the cache write and the result row both ask
        for it); a freshly synthesized instance adds its ``synthesis_seconds``.
        Callers get their own copy.
        """
        if self.cached_report is None:
            summary = self.profile.summary()
            report = dict(self.plan.synthesis_info)
            report.update(summary)
            if self.plan.pool_size:
                report["plan_overhead_ratio"] = self.plan.pool_size / max(
                    report.get("peak_static_demand_bytes", summary["peak_allocated_bytes"]), 1
                )
            self.cached_report = report
        report = dict(self.cached_report)
        if self.plan.synthesis_seconds is not None:
            report["synthesis_seconds"] = self.plan.synthesis_seconds
        return report

    # ------------------------------------------------------------------ #
    # Serialization (plans are cached on disk by the sweep engine)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_json_dict(cls, data: dict) -> "STAlloc":
        """Rebuild a planned STAlloc instance from the JSON document :meth:`dumps` writes."""
        version = data.get("format_version") if isinstance(data, dict) else None
        if version != PLAN_FORMAT_VERSION:
            raise ValueError(
                f"unsupported plan format version {version!r} (expected {PLAN_FORMAT_VERSION})"
            )
        return cls(
            profile=ProfileResult(),
            plan=SynthesizedPlan.from_json_dict(data["plan"]),
            config=STAllocConfig(**data["config"]),
            cached_report=data["report"],
        )

    def dumps(self) -> str:
        """The stored form: plan, pipeline config and precomputed report as compact JSON.

        ``format_version`` is the first key, so the head of a stored entry
        tells which format wrote it.  The profiling result itself is not
        serialized -- the runtime allocator only needs the synthesized plan,
        and the parts of the profile that feed reporting are captured in the
        stored planning report.  Nothing stored depends on when or where the
        plan was synthesized.  The plan's own text is derived once per plan
        (:meth:`SynthesizedPlan.dumps`), and the traces of one plan shape
        share it.
        """
        report = self.planning_report()
        report.pop("synthesis_seconds", None)
        compact = partial(json.dumps, separators=(",", ":"))
        return (
            f'{{"format_version":{compact(PLAN_FORMAT_VERSION)},'
            f'"config":{compact(asdict(self.config))},'
            f'"plan":{self.plan.dumps()},"report":{compact(report)}}}'
        )

    def save_plan(self, path: str | Path) -> None:
        """Write the serialized plan to ``path`` as JSON."""
        Path(path).write_text(self.dumps(), encoding="utf-8")

    @classmethod
    def load_plan(cls, path: str | Path) -> "STAlloc":
        """Load an instance previously stored with :meth:`save_plan`."""
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
