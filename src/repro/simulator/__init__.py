"""Trace replay, memory metrics, and the timing models (timeline + analytical)."""

from repro.simulator.execution import ExecutionContext
from repro.simulator.metrics import MemoryMetrics
from repro.simulator.replay import ReplayResult, replay_trace
from repro.simulator.runner import (
    VALID_TIMINGS,
    JobRun,
    WorkloadRun,
    run_job,
    run_workload,
    run_workload_suite,
)
from repro.simulator.throughput import GPUSpec, ThroughputModel, GPU_SPECS

__all__ = [
    "ExecutionContext",
    "MemoryMetrics",
    "ReplayResult",
    "replay_trace",
    "VALID_TIMINGS",
    "JobRun",
    "WorkloadRun",
    "run_job",
    "run_workload",
    "run_workload_suite",
    "GPUSpec",
    "GPU_SPECS",
    "ThroughputModel",
]
